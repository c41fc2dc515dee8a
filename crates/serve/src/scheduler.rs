//! The batching scheduler: one **supervised** sampler core draining every
//! request into the lanes of a single continuously-batched [`BatchEngine`]
//! run.
//!
//! Connection-handler threads enqueue [`Job`]s; the sampler-core thread
//! (`run_sampler_core`) owns the model and folds the candidates of every
//! in-flight request into one shared batch, admitting new candidates into
//! lanes the moment they free up — so N concurrent clients share one batched
//! forward pass instead of running N serial ones. Completed candidates are
//! handed (in sampling rounds) to a rejection-filter thread that fans out
//! over the rayon pool, exactly like `SynthesisStream`'s pipelined filter
//! stage, and accepted kernels stream back to each request's connection as
//! they are absorbed.
//!
//! # Fault model
//!
//! The sampler core runs under a **supervisor** ([`Supervisor`]): each
//! generation of the core executes inside `catch_unwind`, and a panic —
//! whether a real bug or an injected [`FaultPoint::SamplerPanic`] — is
//! contained to that generation. In-flight requests are answered with typed
//! `500` errors and **quarantined** (their jobs are dropped, never retried
//! into a fresh batch; still-queued jobs are innocent and survive), then the
//! watchdog respawns the core from the shared checkpoint image. Restarts are
//! budgeted over a sliding window; exceeding the budget marks the service
//! [`ServiceHealth::Failed`] and triggers shutdown, so a hard-crash loop
//! cannot spin forever.
//!
//! Per-request **deadlines** bound how long a request may hold lanes: the
//! scheduler sheds queued jobs whose deadline already passed (fail-fast 503)
//! and reaps expired in-flight requests mid-step through the engine's
//! lane-abort predicate ([`BatchEngine::step_into_abortable`]), returning the
//! partial response with a `"timeout"` marker.
//!
//! # Determinism
//!
//! A request's response body is a pure function of the model checkpoint and
//! the request's own parameters, *regardless of what else the server is
//! doing*:
//!
//! * candidate `i` of a request draws from the RNG stream
//!   [`stream_seed`]`(request.seed, i)` — independent of lane assignment and
//!   of the other requests sharing the batch (the [`BatchEngine`]
//!   guarantee);
//! * filter verdicts are pure functions of candidate text;
//! * candidates are absorbed into the response in candidate order, and the
//!   response covers exactly the candidates up to the `count`-th acceptance
//!   (or all `max_attempts` if the target is never met) — over-dispatched
//!   candidates beyond that deterministic cut are discarded.
//!
//! The fault model preserves this: supervisor respawns reload the **same**
//! checkpoint bytes (bit-identical weights), lane aborts cannot influence
//! surviving lanes, and a request that is retried after a `500` therefore
//! reproduces the byte-identical body it would have had without the fault.
//! The chaos suite (`tests/chaos.rs`) asserts exactly that invariant while
//! faults fire.
//!
//! The scheduler may *sample* more candidates than a request's response ends
//! up covering (lanes run ahead while earlier candidates are still in the
//! filter); that overshoot costs throughput only, never determinism.

use crate::faults::{FaultPlan, FaultPoint};
use crate::json;
use crate::metrics::ServeMetrics;
use clgen::{
    absorb_candidate, filter_candidate, stream_seed, BatchEngine, KernelStats, SampleOptions,
    SampledCandidate, StreamedKernel, SynthesisStats, SynthesizedKernel, TrainedModel,
};
use clgen_corpus::filter::FilterConfig;
use clgen_corpus::RejectReason;
use clgen_obs::{FlightRecorder, Trace};
use rayon::prelude::*;
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Candidates a request may keep in flight per still-wanted kernel, beyond
/// the ones already absorbed. Mirrors the stream pipeline's round
/// oversubscription: it keeps lanes busy while earlier candidates filter,
/// bounded so one request cannot monopolise the batch.
const REQUEST_OVERSUBSCRIPTION: usize = 4;

/// How often the idle (or draining) sampler core wakes to sweep deadlines
/// and the drain timer when no messages arrive.
const IDLE_TICK: Duration = Duration::from_millis(200);

/// Parameters of one `/synthesize` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisParams {
    /// Accepted kernels requested.
    pub count: usize,
    /// Sampling temperature.
    pub temperature: f32,
    /// Per-candidate generated-character budget.
    pub max_chars: usize,
    /// Request seed: candidate `i` samples from
    /// [`stream_seed`]`(seed, i)`.
    pub seed: u64,
    /// Hard cap on candidates sampled for this request.
    pub max_attempts: usize,
    /// Deadline in milliseconds from admission, after which the request is
    /// answered with whatever it has (a partial response carrying a
    /// `"timeout"` marker, or a fail-fast `503` if it never left the queue).
    /// `None` falls back to the server's default deadline, if any.
    pub deadline_ms: Option<u64>,
}

/// A typed request failure produced by the scheduler or supervisor, rendered
/// by the connection handler as an HTTP error (head not yet written) or as a
/// terminal `"aborted"` NDJSON line (response already streaming).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// HTTP status the failure maps to (`500` panic, `503` shed/stopping).
    pub status: u16,
    /// `Retry-After` seconds to advertise, if retrying makes sense.
    pub retry_after: Option<u32>,
    /// Human-readable failure description.
    pub message: String,
    /// The request's `clgen_request_latency_us` outcome label: `shed` for a
    /// job whose deadline expired while it was queued, `error` otherwise.
    pub(crate) outcome: &'static str,
}

impl ServeError {
    /// A failure that is not a shed: no `Retry-After`, outcome `error`.
    fn failed(status: u16, message: String) -> ServeError {
        ServeError {
            status,
            retry_after: None,
            message,
            outcome: "error",
        }
    }
}

/// One line of a streaming synthesis response.
#[derive(Debug)]
pub enum ResponseEvent {
    /// An accepted kernel (one rendered NDJSON line, no trailing newline).
    Kernel(String),
    /// The request is complete (the final summary NDJSON line).
    Done(String),
    /// The request failed: shed from the queue, aborted by a panic, or cut
    /// off by shutdown. Terminal, like `Done`.
    Error(ServeError),
}

/// A synthesis request handed to the sampler core.
#[derive(Debug)]
pub struct Job {
    /// Request parameters.
    pub params: SynthesisParams,
    /// Absolute deadline resolved at admission time (`None` = no deadline).
    pub deadline: Option<Instant>,
    /// When the job entered the admission queue (drives the queue-wait
    /// metrics and the trace's `queued` span).
    pub enqueued_at: Instant,
    /// The request's span accumulator; the scheduler records the `queued`,
    /// `sampling` and `filter` stages into it.
    pub trace: Arc<Trace>,
    /// Where response lines are streamed.
    pub reply: mpsc::Sender<ResponseEvent>,
    /// Set by the connection handler when it observes the client has gone
    /// away, so the sampler core stops spending lanes on the request even
    /// if no acceptance (the other disconnect signal) ever happens.
    pub cancelled: Arc<AtomicBool>,
    /// The job's place in the admission queue. The sampler core releases it
    /// on activation, and with the job when it sheds or fails it; an unsent
    /// job releases it on the connection thread.
    pub(crate) slot: QueueSlot,
}

/// One place in the admission queue, handed out by the server's gate and
/// released when dropped — the only place the queue counter goes down, so
/// every exit path (a panicking connection thread included) gives it back.
#[derive(Debug)]
pub(crate) struct QueueSlot(pub(crate) Arc<AtomicUsize>);

impl Drop for QueueSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Everything the sampler core can receive.
pub enum SchedMsg {
    /// A new synthesis request.
    Job(Job),
    /// One round of filter verdicts coming back.
    Filtered(Vec<Filtered>),
    /// Drain accepted work, then exit — but no later than `drain_deadline`,
    /// after which remaining jobs are failed with `503` and the core exits
    /// anyway (bounded graceful shutdown).
    Shutdown {
        /// When draining gives up (`None` = unbounded drain).
        drain_deadline: Option<Instant>,
    },
}

/// One candidate with its filter verdict.
pub struct Filtered {
    ticket: u64,
    candidate: SampledCandidate,
    verdict: Result<SynthesizedKernel, RejectReason>,
    /// Wall-clock cost of this candidate's filter verdict (µs), accumulated
    /// into the owning request's `filter` trace span.
    filter_us: u64,
}

/// Service health as reported by `/healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceHealth {
    /// No sampler-core restart within the supervisor window.
    Ok,
    /// The sampler core restarted recently; service continues on the
    /// respawned core.
    Degraded,
    /// The restart budget was exceeded; the server is shutting down.
    Failed,
}

impl ServiceHealth {
    /// The status string used in `/healthz` and `/stats` bodies.
    pub fn as_str(self) -> &'static str {
        match self {
            ServiceHealth::Ok => "ok",
            ServiceHealth::Degraded => "degraded",
            ServiceHealth::Failed => "failed",
        }
    }
}

/// Watchdog state for the supervised sampler core: restart accounting over a
/// sliding window, shared between the core thread and the HTTP front-end
/// (`/healthz`, `/stats`).
#[derive(Debug)]
pub struct Supervisor {
    budget: u32,
    window: Duration,
    restarts_total: AtomicU64,
    recent: Mutex<VecDeque<Instant>>,
    failed: AtomicBool,
}

impl Supervisor {
    pub(crate) fn new(budget: u32, window: Duration) -> Supervisor {
        Supervisor {
            budget,
            window,
            restarts_total: AtomicU64::new(0),
            recent: Mutex::new(VecDeque::new()),
            failed: AtomicBool::new(false),
        }
    }

    /// Record one restart attempt (a panic respawn or a failed checkpoint
    /// reload). Returns `true` — and latches [`ServiceHealth::Failed`] — if
    /// the budget is now exceeded within the window.
    fn record_restart(&self) -> bool {
        let now = Instant::now();
        let mut recent = self.recent.lock().expect("supervisor lock");
        recent.push_back(now);
        while recent
            .front()
            .is_some_and(|&t| now.duration_since(t) > self.window)
        {
            recent.pop_front();
        }
        self.restarts_total.fetch_add(1, Ordering::SeqCst);
        let exceeded = recent.len() as u32 > self.budget;
        if exceeded {
            self.failed.store(true, Ordering::SeqCst);
        }
        exceeded
    }

    /// Total sampler-core restarts since boot.
    pub fn restarts(&self) -> u64 {
        self.restarts_total.load(Ordering::SeqCst)
    }

    /// Restarts within the trailing window (prunes expired entries).
    pub fn recent_restarts(&self) -> usize {
        let now = Instant::now();
        let mut recent = self.recent.lock().expect("supervisor lock");
        while recent
            .front()
            .is_some_and(|&t| now.duration_since(t) > self.window)
        {
            recent.pop_front();
        }
        recent.len()
    }

    /// Current service health: `failed` once the budget is exceeded,
    /// `degraded` while any restart sits within the window, `ok` otherwise.
    pub fn health(&self) -> ServiceHealth {
        if self.failed.load(Ordering::SeqCst) {
            ServiceHealth::Failed
        } else if self.recent_restarts() > 0 {
            ServiceHealth::Degraded
        } else {
            ServiceHealth::Ok
        }
    }
}

/// One request being served by the sampler core.
struct ActiveRequest {
    key: u32,
    params: SynthesisParams,
    deadline: Option<Instant>,
    reply: mpsc::Sender<ResponseEvent>,
    /// When the request was activated (starts the `sampling` trace span).
    admitted_at: Instant,
    /// Accumulated filter wall-clock across this request's candidates (µs).
    filter_us: u64,
    /// Span accumulator shared with the connection thread.
    trace: Arc<Trace>,
    /// Candidates handed to lanes so far.
    next_dispatch: u64,
    /// Next candidate index to fold into the response.
    next_absorb: u64,
    /// Filter verdicts that arrived ahead of `next_absorb`, with their
    /// filter cost in µs.
    pending: HashMap<
        u64,
        (
            SampledCandidate,
            Result<SynthesizedKernel, RejectReason>,
            u64,
        ),
    >,
    /// Accumulation since the last accepted kernel.
    window: KernelStats,
    /// Request totals (drives the trailing summary line).
    summary: SynthesisStats,
    /// A reply send failed (client went away mid-stream); sample no more,
    /// absorb silently.
    failed: bool,
    /// The deadline passed mid-flight: finish now with a partial response.
    timed_out: bool,
    /// Disconnect flag shared with the connection handler.
    cancelled: Arc<AtomicBool>,
}

impl ActiveRequest {
    /// True once nobody is listening: a reply send failed, or the handler
    /// observed the client closing its socket.
    fn is_abandoned(&self) -> bool {
        self.failed || self.cancelled.load(Ordering::Relaxed)
    }

    /// True once the request must stop holding lanes: abandoned or expired.
    fn is_dead(&self) -> bool {
        self.is_abandoned() || self.timed_out
    }

    fn wants_dispatch(&self) -> bool {
        if self.is_dead()
            || self.summary.accepted >= self.params.count
            || self.next_dispatch >= self.params.max_attempts as u64
        {
            return false;
        }
        let outstanding = (self.next_dispatch - self.next_absorb) as usize;
        let wanted = self.params.count - self.summary.accepted;
        outstanding < wanted.saturating_mul(REQUEST_OVERSUBSCRIPTION)
    }
}

fn ticket(key: u32, index: u64) -> u64 {
    (u64::from(key) << 32) | index
}

fn ticket_key(ticket: u64) -> u32 {
    (ticket >> 32) as u32
}

fn ticket_index(ticket: u64) -> u64 {
    ticket & 0xFFFF_FFFF
}

/// Render the sorted rejection map shared by kernel lines, summary lines
/// and the `/stats` endpoint.
pub(crate) fn render_rejections(out: &mut String, rejected: &HashMap<RejectReason, usize>) {
    let mut reasons: Vec<(String, usize)> = rejected
        .iter()
        .map(|(reason, &count)| (reason.to_string(), count))
        .collect();
    reasons.sort();
    out.push('{');
    for (i, (reason, count)) in reasons.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::escape_into(out, reason);
        out.push(':');
        out.push_str(&count.to_string());
    }
    out.push('}');
}

/// Render one accepted kernel + its [`KernelStats`] as an NDJSON line.
fn render_kernel_line(kernel: &SynthesizedKernel, stats: &KernelStats) -> String {
    let mut line = String::with_capacity(kernel.source.len() + 128);
    line.push_str("{\"kernel\":");
    json::escape_into(&mut line, &kernel.source);
    line.push_str(&format!(
        ",\"instructions\":{},\"candidate_index\":{},\"attempts\":{},\"generated_chars\":{},",
        kernel.instructions, stats.candidate_index, stats.attempts, stats.generated_chars
    ));
    if kernel.repaired {
        // Only emitted when set, so natively-valid kernel lines keep their
        // exact pre-repair byte layout.
        line.push_str("\"repaired\":true,");
    }
    line.push_str("\"rejected\":");
    render_rejections(&mut line, &stats.rejected);
    line.push('}');
    line
}

/// Render the trailing per-request summary as an NDJSON line. The
/// `timed_out` marker is only emitted when set, so responses that never hit
/// their deadline are byte-identical to those of a deadline-free server.
fn render_done_line(summary: &SynthesisStats, exhausted: bool, timed_out: bool) -> String {
    let mut line = String::with_capacity(160);
    line.push_str(&format!(
        "{{\"done\":true,\"kernels\":{},\"attempts\":{},\"generated_chars\":{},\"repaired\":{},\"exhausted\":{},",
        summary.accepted, summary.attempts, summary.generated_chars, summary.repaired, exhausted
    ));
    if timed_out {
        line.push_str("\"timeout\":true,");
    }
    line.push_str("\"rejected\":");
    render_rejections(&mut line, &summary.rejected);
    line.push('}');
    line
}

/// Why one generation of the sampler core returned (as opposed to panicking
/// out of `catch_unwind`).
enum Exit {
    /// Clean shutdown: drained (or drain deadline enforced) after
    /// [`SchedMsg::Shutdown`], or every sender hung up.
    Finished,
}

struct Scheduler {
    rx: mpsc::Receiver<SchedMsg>,
    filter_tx: mpsc::Sender<Vec<(u64, SampledCandidate)>>,
    backlog: VecDeque<Job>,
    active: Vec<ActiveRequest>,
    metrics: Arc<ServeMetrics>,
    flight: Arc<FlightRecorder>,
    faults: FaultPlan,
    seed_text: String,
    next_key: u32,
    rr: usize,
    in_flight_filter: usize,
    max_active: usize,
    shutdown: bool,
    drain_deadline: Option<Instant>,
}

impl Scheduler {
    fn handle(&mut self, msg: SchedMsg) {
        match msg {
            SchedMsg::Job(job) => self.backlog.push_back(job),
            SchedMsg::Shutdown { drain_deadline } => {
                self.shutdown = true;
                self.drain_deadline = drain_deadline;
            }
            SchedMsg::Filtered(batch) => {
                // Saturating: a panic between a filter send and the matching
                // increment can leave the counter one short after recovery.
                self.in_flight_filter = self.in_flight_filter.saturating_sub(1);
                for item in batch {
                    let key = ticket_key(item.ticket);
                    // A request that already finished (satisfied early,
                    // timed out, or its client went away) simply drops late
                    // verdicts.
                    if let Some(req) = self.active.iter_mut().find(|r| r.key == key) {
                        req.pending.insert(
                            ticket_index(item.ticket),
                            (item.candidate, item.verdict, item.filter_us),
                        );
                    }
                }
            }
        }
    }

    fn is_drained(&self) -> bool {
        self.active.is_empty() && self.backlog.is_empty() && self.in_flight_filter == 0
    }

    /// Fold every in-order verdict of every request into its response,
    /// completing requests that reach their target, their attempt cap or
    /// their deadline. The metric counters are bumped *before* the final
    /// `Done` line is sent, so `/stats` (or `/metrics`) read after a
    /// completed response reflects it.
    fn absorb_all(&mut self, engine: &mut BatchEngine<'_>) {
        let mut i = 0;
        while i < self.active.len() {
            if let Some(done_line) = Self::absorb_request(&mut self.active[i]) {
                let req = self.active.swap_remove(i);
                for lane in 0..engine.num_lanes() {
                    if engine
                        .lane_ticket(lane)
                        .is_some_and(|t| ticket_key(t) == req.key)
                    {
                        engine.abort(lane);
                    }
                }
                let stats = &req.summary;
                self.metrics.kernels.add(stats.accepted as u64);
                self.metrics.attempts.add(stats.attempts as u64);
                self.metrics
                    .generated_chars
                    .add(stats.generated_chars as u64);
                self.metrics.filter_accepted.add(stats.accepted as u64);
                for (reason, &count) in &stats.rejected {
                    self.metrics
                        .filter_rejected(&reason.to_string())
                        .add(count as u64);
                }
                // Mutually-exclusive outcome taxonomy: the four counters sum
                // to the request's absorbed attempts.
                let aborted = stats.aborted_midstream();
                self.metrics
                    .candidate_outcome("accepted")
                    .add((stats.accepted - stats.repaired) as u64);
                self.metrics
                    .candidate_outcome("repaired")
                    .add(stats.repaired as u64);
                self.metrics
                    .candidate_outcome("aborted_midstream")
                    .add(aborted as u64);
                self.metrics
                    .candidate_outcome("rejected")
                    .add((stats.attempts - stats.accepted - aborted) as u64);
                self.metrics.requests_completed.inc();
                if req.timed_out {
                    self.metrics.requests_timed_out.inc();
                }
                self.metrics.active_requests.set(self.active.len() as f64);
                req.trace.record_since("sampling", req.admitted_at);
                req.trace.record("filter", req.filter_us);
                let _ = req.reply.send(ResponseEvent::Done(done_line));
            } else {
                i += 1;
            }
        }
    }

    /// Absorb one request's ready verdicts in candidate order. Returns the
    /// rendered summary line once the request is complete.
    fn absorb_request(req: &mut ActiveRequest) -> Option<String> {
        while let Some((candidate, verdict, filter_us)) = req.pending.remove(&req.next_absorb) {
            let index = req.next_absorb;
            req.next_absorb += 1;
            req.filter_us += filter_us;
            if let Some(StreamedKernel { kernel, stats }) = absorb_candidate(
                &mut req.summary,
                &mut req.window,
                index,
                candidate.generated_chars,
                verdict,
            ) {
                let line = render_kernel_line(&kernel, &stats);
                if !req.is_dead() && req.reply.send(ResponseEvent::Kernel(line)).is_err() {
                    req.failed = true;
                }
                if req.summary.accepted >= req.params.count {
                    return Some(render_done_line(&req.summary, false, false));
                }
            }
        }
        if req.is_dead() {
            // Deadline passed mid-flight, or the client went away: answer
            // now with what was absorbed. Still-outstanding candidates are
            // dropped — their lanes are reaped by the step-abort predicate
            // (so they can never come back), and late filter verdicts are
            // dropped by the key lookup.
            return Some(render_done_line(&req.summary, true, req.timed_out));
        }
        if req.next_absorb >= req.params.max_attempts as u64 {
            // Attempt cap reached with the target unmet.
            return Some(render_done_line(&req.summary, true, false));
        }
        None
    }

    /// Shed queued jobs whose deadline has already passed: fail fast with
    /// `503` + `Retry-After` instead of spending lanes on a request whose
    /// client has stopped waiting.
    fn shed_expired_backlog(&mut self) {
        if self.backlog.is_empty() {
            return;
        }
        let now = Instant::now();
        let metrics = &self.metrics;
        let flight = &self.flight;
        self.backlog.retain(|job| {
            if job.deadline.is_some_and(|d| d <= now) {
                // Recorded here — on the shared sweep reached from both the
                // busy loop and the idle `recv_timeout` tick — so sheds are
                // counted even with zero concurrent traffic.
                let wait_us = job.enqueued_at.elapsed().as_micros() as u64;
                metrics.queue_wait_shed.observe(wait_us);
                metrics.requests_shed.inc();
                flight.record(
                    "shed",
                    format!("trace={} wait_us={wait_us}", job.trace.id()),
                );
                let _ = job.reply.send(ResponseEvent::Error(ServeError {
                    status: 503,
                    retry_after: Some(1),
                    message: "deadline expired while queued".to_string(),
                    outcome: "shed",
                }));
                false
            } else {
                true
            }
        });
    }

    /// Mark in-flight requests whose deadline has passed and complete them
    /// with their partial results.
    fn reap_expired(&mut self, engine: &mut BatchEngine<'_>) {
        if self.active.is_empty() {
            return;
        }
        let now = Instant::now();
        let mut any = false;
        for req in &mut self.active {
            if !req.timed_out && req.deadline.is_some_and(|d| d <= now) {
                req.timed_out = true;
                self.flight
                    .record("reap", format!("trace={} key={}", req.trace.id(), req.key));
                any = true;
            }
        }
        if any {
            self.absorb_all(engine);
        }
    }

    /// Activate backlog jobs and refill free lanes, round-robin across
    /// active requests so no request monopolises the batch.
    fn admit(&mut self, engine: &mut BatchEngine<'_>) {
        while self.active.len() < self.max_active {
            let Some(job) = self.backlog.pop_front() else {
                break;
            };
            // Activation gives the job's place in the queue back.
            drop(job.slot);
            let key = self.next_key;
            self.next_key = self.next_key.wrapping_add(1);
            let wait_us = job.enqueued_at.elapsed().as_micros() as u64;
            self.metrics.queue_wait_admitted.observe(wait_us);
            job.trace.record("queued", wait_us);
            self.flight.record(
                "admit",
                format!(
                    "trace={} key={key} seed={} count={} wait_us={wait_us}",
                    job.trace.id(),
                    job.params.seed,
                    job.params.count
                ),
            );
            self.active.push(ActiveRequest {
                key,
                params: job.params,
                deadline: job.deadline,
                reply: job.reply,
                cancelled: job.cancelled,
                admitted_at: Instant::now(),
                filter_us: 0,
                trace: job.trace,
                next_dispatch: 0,
                next_absorb: 0,
                pending: HashMap::new(),
                window: KernelStats::default(),
                summary: SynthesisStats::default(),
                failed: false,
                timed_out: false,
            });
        }
        // Reap abandoned requests (their finish condition can become true
        // without any filter verdict arriving — e.g. a disconnect observed
        // while nothing of theirs was in flight). This must run AFTER
        // backlog activation: a request can arrive already-cancelled, and
        // if it were activated after the sweep the scheduler could go to
        // sleep holding it, with no further message ever waking it.
        if self.active.iter().any(ActiveRequest::is_dead) {
            self.absorb_all(engine);
        }
        'lanes: while let Some(lane) = engine.free_lane() {
            let n = self.active.len();
            let mut tried = 0;
            loop {
                if tried >= n {
                    break 'lanes;
                }
                let i = self.rr % n;
                self.rr = self.rr.wrapping_add(1);
                tried += 1;
                let req = &mut self.active[i];
                if !req.wants_dispatch() {
                    continue;
                }
                let index = req.next_dispatch;
                req.next_dispatch += 1;
                let ticket = ticket(req.key, index);
                let options = SampleOptions {
                    max_chars: req.params.max_chars,
                    temperature: req.params.temperature,
                };
                let rng_seed = stream_seed(req.params.seed, index);
                if let Some(done) = engine.admit(lane, ticket, &self.seed_text, options, rng_seed) {
                    // Zero-budget candidates complete at admission; route
                    // them through the filter like any other round.
                    if self.filter_tx.send(vec![(ticket, done)]).is_ok() {
                        self.in_flight_filter += 1;
                    }
                }
                continue 'lanes;
            }
        }
    }

    fn publish(&self, engine: &BatchEngine<'_>) {
        self.metrics.lanes_busy.set(engine.occupied_lanes() as f64);
        self.metrics.active_requests.set(self.active.len() as f64);
    }

    /// Fail every in-flight request with `error`, dropping the requests (the
    /// panic quarantine: an in-flight job is never retried into a fresh
    /// batch). The engine of the failed generation is already gone.
    fn fail_in_flight(&mut self, error: &ServeError) {
        let n = self.active.len() as u64;
        for req in self.active.drain(..) {
            let _ = req.reply.send(ResponseEvent::Error(error.clone()));
        }
        self.metrics.requests_failed.add(n);
        self.metrics.active_requests.set(0.0);
        self.metrics.lanes_busy.set(0.0);
    }

    /// Fail every queued job with `error` (shutdown gave up on them).
    fn fail_backlog(&mut self, error: &ServeError) {
        let n = self.backlog.len() as u64;
        for job in self.backlog.drain(..) {
            let _ = job.reply.send(ResponseEvent::Error(error.clone()));
        }
        self.metrics.requests_failed.add(n);
    }

    /// The drain deadline passed with work still in the system: answer
    /// everything with `503 server stopping` so the process can still exit.
    fn enforce_drain_deadline(&mut self) -> bool {
        if !self.shutdown {
            return false;
        }
        let Some(deadline) = self.drain_deadline else {
            return false;
        };
        if Instant::now() < deadline || self.is_drained() {
            return false;
        }
        let error = ServeError::failed(503, "server stopping: drain timeout expired".to_string());
        self.fail_in_flight(&error);
        self.fail_backlog(&error);
        true
    }

    /// One generation of the sampler core: drain requests into `engine`
    /// until shutdown completes or every sender hangs up. Runs under the
    /// supervisor's `catch_unwind`; a panic anywhere in here (model compute,
    /// absorption, an injected fault) aborts only this generation.
    fn run(&mut self, engine: &mut BatchEngine<'_>) -> Exit {
        let mut completed: Vec<(u64, SampledCandidate)> = Vec::new();
        loop {
            if self.enforce_drain_deadline() {
                return Exit::Finished;
            }
            self.shed_expired_backlog();
            self.reap_expired(engine);
            self.admit(engine);
            if engine.occupied_lanes() == 0 {
                let drained = self.is_drained();
                self.publish(engine);
                if self.shutdown && drained {
                    return Exit::Finished;
                }
                // Fully idle (or blocked on the filter): wait for input
                // instead of spinning, waking on a tick to sweep deadlines
                // and the drain timer.
                match self.rx.recv_timeout(IDLE_TICK) {
                    Ok(msg) => self.handle(msg),
                    Err(mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(mpsc::RecvTimeoutError::Disconnected) => return Exit::Finished,
                }
                while let Ok(msg) = self.rx.try_recv() {
                    self.handle(msg);
                }
                self.absorb_all(engine);
                continue;
            }
            // Busy: poll the inbox opportunistically so arriving requests
            // join the batch this round, then advance every lane one
            // character.
            self.faults.stall(FaultPoint::SamplerStall);
            while let Ok(msg) = self.rx.try_recv() {
                self.handle(msg);
            }
            self.absorb_all(engine);
            self.admit(engine);
            if self.faults.fire(FaultPoint::SamplerPanic).is_some() {
                self.flight.record("fault", "sampler_panic".to_string());
                panic!("injected fault: sampler_panic");
            }
            self.metrics
                .lane_occupancy
                .observe(engine.occupied_lanes() as u64);
            completed.clear();
            {
                // Lanes whose request is gone (completed, expired, or its
                // client vanished) are reaped mid-step through the engine's
                // abort predicate instead of sampling to their budget.
                let active = &self.active;
                engine.step_into_abortable(&mut completed, |t| {
                    let key = ticket_key(t);
                    match active.iter().find(|r| r.key == key) {
                        None => true,
                        Some(req) => req.is_dead(),
                    }
                });
            }
            if !completed.is_empty() {
                self.flight
                    .record("step", format!("completed={}", completed.len()));
                if self.filter_tx.send(std::mem::take(&mut completed)).is_err() {
                    // The filter thread died; nothing can complete any more.
                    return Exit::Finished;
                }
                self.in_flight_filter += 1;
            }
            self.publish(engine);
        }
    }
}

/// Everything the supervised sampler core needs beyond its inbox: the shared
/// checkpoint image it respawns from, the shared statistics, the fault plan,
/// and the server's shutdown trigger for budget exhaustion.
pub(crate) struct CoreContext {
    pub lanes: usize,
    pub seed_text: String,
    /// Pristine checkpoint image (the bytes of the model the server booted
    /// with); every respawn decodes a fresh model from it.
    pub checkpoint: Arc<Vec<u8>>,
    pub metrics: Arc<ServeMetrics>,
    pub flight: Arc<FlightRecorder>,
    pub supervisor: Arc<Supervisor>,
    pub faults: FaultPlan,
    /// Server shutdown flag + bound address: budget exhaustion triggers the
    /// same graceful-shutdown path as `POST /shutdown`.
    pub shutdown: Arc<AtomicBool>,
    pub addr: SocketAddr,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run the supervised sampler core until shutdown: the body of the
/// sampler-core thread spawned by the server.
///
/// Each generation of the core runs under `catch_unwind`; panics fail the
/// in-flight requests with typed 500s and respawn the core from the shared
/// checkpoint image, within the supervisor's restart budget (see the module
/// docs). `sched_tx` is the loop's own inbox sender, handed to the filter
/// thread so verdicts come back through the same channel as new jobs.
pub(crate) fn run_sampler_core(
    model: TrainedModel,
    ctx: CoreContext,
    rx: mpsc::Receiver<SchedMsg>,
    sched_tx: mpsc::Sender<SchedMsg>,
) {
    let (filter_tx, filter_rx) = mpsc::channel::<Vec<(u64, SampledCandidate)>>();
    // Served code stands alone, like anything the sampler accepts offline.
    let filter_config = FilterConfig::without_shim();
    let filter_faults = ctx.faults.clone();
    let filter_thread = std::thread::spawn(move || {
        // Filter stage: each round fans out over the rayon pool; verdicts
        // return to the scheduler inbox as one message per round. Each
        // candidate's verdict is computed under `catch_unwind`, so one
        // poisoned candidate panicking the filter becomes a typed rejection
        // instead of wedging every in-flight request.
        while let Ok(batch) = filter_rx.recv() {
            let filtered: Vec<Filtered> = batch
                .into_par_iter()
                .map(|(ticket, candidate)| {
                    let started = Instant::now();
                    let verdict = catch_unwind(AssertUnwindSafe(|| {
                        if filter_faults.fire(FaultPoint::FilterPanic).is_some() {
                            panic!("injected fault: filter_panic");
                        }
                        filter_candidate(&filter_config, &candidate)
                    }))
                    .unwrap_or(Err(RejectReason::FilterPanicked));
                    Filtered {
                        ticket,
                        candidate,
                        verdict,
                        filter_us: started.elapsed().as_micros() as u64,
                    }
                })
                .collect();
            if sched_tx.send(SchedMsg::Filtered(filtered)).is_err() {
                break;
            }
        }
    });

    let mut sched = Scheduler {
        rx,
        filter_tx,
        backlog: VecDeque::new(),
        active: Vec::new(),
        metrics: ctx.metrics.clone(),
        flight: ctx.flight.clone(),
        faults: ctx.faults.clone(),
        seed_text: ctx.seed_text.clone(),
        next_key: 0,
        rr: 0,
        in_flight_filter: 0,
        max_active: ctx.lanes.max(1),
        shutdown: false,
        drain_deadline: None,
    };

    // The model the server booted with serves the first generation; every
    // respawn decodes a fresh model from the pristine checkpoint image.
    let mut boot_model = Some(model);
    loop {
        let model = match boot_model.take() {
            Some(model) => model,
            None => {
                let mut image = ctx.checkpoint.as_ref().clone();
                if let Some(index) = ctx.faults.corrupt_reload(&mut image) {
                    ctx.flight
                        .record("fault", format!("corrupt_reload byte={index}"));
                    eprintln!(
                        "clgen-serve: injected fault: corrupt_reload (byte {index} of the \
                         checkpoint image)"
                    );
                }
                match TrainedModel::from_bytes(&image) {
                    Ok(model) => model,
                    Err(e) => {
                        ctx.flight.record("reload_failure", format!("{e}"));
                        eprint!("{}", ctx.flight.dump("reload_failure"));
                        eprintln!("clgen-serve: checkpoint reload failed: {e}; retrying");
                        ctx.metrics.supervisor_restarts.inc();
                        if ctx.supervisor.record_restart() {
                            give_up(&mut sched, &ctx);
                            break;
                        }
                        continue;
                    }
                }
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut streams = model.streams(ctx.lanes.max(1));
            let mut engine = BatchEngine::new(streams.as_mut(), model.vocabulary());
            sched.run(&mut engine)
        }));
        match outcome {
            Ok(Exit::Finished) => break,
            Err(payload) => {
                let message = panic_message(payload);
                ctx.flight.record("panic", message.clone());
                // Dump the flight ring before anything else: the recent
                // admissions/steps/faults leading up to the panic are the
                // post-mortem record.
                eprint!("{}", ctx.flight.dump("sampler_panic"));
                eprintln!(
                    "clgen-serve: sampler core panicked ({message}); failing in-flight \
                     requests and respawning from the checkpoint image"
                );
                sched.fail_in_flight(&ServeError::failed(
                    500,
                    format!("sampler core panicked: {message}"),
                ));
                ctx.metrics.supervisor_restarts.inc();
                if ctx.supervisor.record_restart() {
                    give_up(&mut sched, &ctx);
                    break;
                }
            }
        }
    }

    // Closing the filter channel ends the filter thread's receive loop.
    drop(sched.filter_tx);
    let _ = filter_thread.join();
}

/// The restart budget is exhausted: answer everything still in the system
/// and trigger the server's graceful shutdown so the process exits instead
/// of spinning through a crash loop.
fn give_up(sched: &mut Scheduler, ctx: &CoreContext) {
    ctx.flight.record(
        "budget_exhausted",
        format!("restarts={}", ctx.supervisor.restarts()),
    );
    eprint!("{}", ctx.flight.dump("restart_budget_exhausted"));
    eprintln!(
        "clgen-serve: sampler core restart budget exhausted ({} restarts); shutting down",
        ctx.supervisor.restarts()
    );
    let error = ServeError::failed(
        503,
        "server stopping: sampler core restart budget exhausted".to_string(),
    );
    sched.fail_in_flight(&error);
    sched.fail_backlog(&error);
    if !ctx.shutdown.swap(true, Ordering::SeqCst) {
        // Wake the blocking accept call so the shutdown sequence starts.
        let _ = std::net::TcpStream::connect(ctx.addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn done_line_timeout_marker_is_additive() {
        let summary = SynthesisStats {
            accepted: 1,
            attempts: 3,
            generated_chars: 120,
            repaired: 1,
            rejected: HashMap::new(),
        };
        let plain = render_done_line(&summary, false, false);
        assert_eq!(
            plain,
            "{\"done\":true,\"kernels\":1,\"attempts\":3,\"generated_chars\":120,\
             \"repaired\":1,\"exhausted\":false,\"rejected\":{}}"
        );
        let timed = render_done_line(&summary, true, true);
        assert!(timed.contains("\"timeout\":true"));
        assert!(timed.contains("\"exhausted\":true"));
        // The marker is strictly additive: stripping it yields the same
        // bytes as the exhausted fault-free line, preserving byte-identical
        // happy-path responses.
        assert_eq!(
            timed.replace("\"timeout\":true,", ""),
            render_done_line(&summary, true, false)
        );
    }

    /// With zero concurrent traffic nothing drives the scheduler's busy
    /// loop, so an expired queued job can only be shed by the idle
    /// `recv_timeout` tick — and that path must bump the shed metrics too.
    #[test]
    fn idle_tick_sheds_expired_job_and_records_metrics() {
        use clgen_corpus::Vocabulary;
        use clgen_neural::lstm::{LstmConfig, LstmModel};
        use clgen_neural::StatefulLstm;

        let vocab = Vocabulary::from_text("__kernel void A(__global int* a) { a[0] = 1; }\n");
        let config = LstmConfig::small(vocab.len());
        let model =
            TrainedModel::from_parts(vocab, Box::new(StatefulLstm::new(LstmModel::new(config))))
                .expect("model");

        let (tx, rx) = mpsc::channel::<SchedMsg>();
        let (filter_tx, _filter_rx) = mpsc::channel();
        let metrics = Arc::new(ServeMetrics::new(Arc::new(clgen_obs::Registry::new())));
        let flight = Arc::new(FlightRecorder::new(16));
        let queued = Arc::new(AtomicUsize::new(1));
        let mut sched = Scheduler {
            rx,
            filter_tx,
            backlog: VecDeque::new(),
            active: Vec::new(),
            metrics: metrics.clone(),
            flight: flight.clone(),
            faults: FaultPlan::inert(),
            seed_text: "__kernel".to_string(),
            next_key: 0,
            rr: 0,
            in_flight_filter: 0,
            // No lane capacity: the job can never activate, exactly like a
            // server with zero concurrent traffic ahead of admission.
            max_active: 0,
            shutdown: false,
            drain_deadline: None,
        };
        let core = std::thread::spawn(move || {
            let mut streams = model.streams(1);
            let mut engine = BatchEngine::new(streams.as_mut(), model.vocabulary());
            sched.run(&mut engine)
        });

        let (reply_tx, reply_rx) = mpsc::channel();
        tx.send(SchedMsg::Job(Job {
            params: SynthesisParams {
                count: 1,
                temperature: 1.0,
                max_chars: 64,
                seed: 7,
                max_attempts: 4,
                deadline_ms: Some(50),
            },
            deadline: Some(Instant::now() + Duration::from_millis(50)),
            enqueued_at: Instant::now(),
            trace: Arc::new(Trace::new("idle-shed-test".to_string())),
            reply: reply_tx,
            cancelled: Arc::new(AtomicBool::new(false)),
            slot: QueueSlot(queued.clone()),
        }))
        .expect("send job");

        match reply_rx.recv_timeout(Duration::from_secs(10)) {
            Ok(ResponseEvent::Error(e)) => {
                assert_eq!(e.status, 503);
                assert_eq!(e.retry_after, Some(1));
                assert_eq!(e.message, "deadline expired while queued");
                assert_eq!(e.outcome, "shed");
            }
            other => panic!("expected shed error, got {other:?}"),
        }
        // The sweep drops the shed job, and with it the job's queue slot.
        let by = Instant::now() + Duration::from_secs(10);
        while queued.load(Ordering::SeqCst) != 0 {
            assert!(Instant::now() < by, "shedding must release the queue slot");
            std::thread::yield_now();
        }
        assert_eq!(metrics.requests_shed.get(), 1);
        assert_eq!(metrics.queue_wait_shed.count(), 1);
        assert!(
            flight.snapshot().iter().any(|e| e.kind == "shed"),
            "flight ring records the shed"
        );

        tx.send(SchedMsg::Shutdown {
            drain_deadline: None,
        })
        .expect("send shutdown");
        core.join().expect("core thread");
    }

    #[test]
    fn supervisor_window_accounting() {
        let sup = Supervisor::new(2, Duration::from_secs(3600));
        assert_eq!(sup.health(), ServiceHealth::Ok);
        assert!(!sup.record_restart());
        assert_eq!(sup.health(), ServiceHealth::Degraded);
        assert!(!sup.record_restart());
        assert!(sup.record_restart(), "third restart exceeds budget 2");
        assert_eq!(sup.health(), ServiceHealth::Failed);
        assert_eq!(sup.restarts(), 3);
    }

    #[test]
    fn supervisor_window_expires_restarts() {
        let sup = Supervisor::new(0, Duration::from_millis(30));
        assert!(sup.record_restart(), "budget 0 fails on the first restart");
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(sup.recent_restarts(), 0, "window pruned");
        // Failure latches even after the window empties.
        assert_eq!(sup.health(), ServiceHealth::Failed);
    }
}
