//! The batching scheduler: one **supervised** sampler core draining every
//! request into the lanes of `K` continuously-batched [`BatchEngine`]s, one
//! per rayon thread.
//!
//! Connection-handler threads enqueue [`Job`]s; the sampler core owns the
//! model and folds the candidates of every in-flight request into shared
//! batches, admitting new candidates into lanes the moment they free up — so
//! N concurrent clients share batched forward passes instead of running N
//! serial ones. The server's lanes are split by
//! [`lane_split`](clgen::lane_split), the rule an offline
//! [`SynthesisStream`](clgen::SynthesisStream) splits by: `K = min(threads,
//! lanes)` engines, 16 lanes on 2 threads as 8 + 8, with the
//! thread count read on the thread that starts the server. Engine 0 steps on
//! the sampler-core thread, which alone reads the inbox; engines `1..K` step
//! on scoped helper threads of the same generation.
//!
//! Each request keeps its books in a [`Session`], the tally an offline
//! stream keeps for its one run: the same dispatch bound (over all `K`
//! engines' lanes), the same candidate order, the same cut. Completed
//! candidates go, one batch per engine step, to the rejection-filter stage
//! both drivers share ([`spawn_filter_stage`]), and accepted kernels stream
//! back to each request's connection as they are absorbed.
//!
//! # Engines and the lock
//!
//! A generation of the core is one run of the engine shell
//! [`clgen::crew`] — the one an offline `SynthesisStream` pull runs too —
//! with the `Scheduler` as its policy: the shell keeps the scheduler behind
//! its one lock, and each sampler thread owns one engine. A thread's turn
//! holds the lock once:
//!
//! 1. *under the lock*, it hands the candidates its previous step completed
//!    to the filter stage (`hand_over`), folds the inbox into the scheduler
//!    (engine 0's thread only, `handle`), and takes the policy half
//!    (`plan`): shed, reap, absorb, admit into *its own* engine's free
//!    lanes, and snapshot the keys of the requests still live;
//! 2. *outside the lock*, it steps its engine: every occupied lane advances
//!    one character, and lanes whose request is not in the snapshot are
//!    reaped by the step's abort predicate.
//!
//! Admission **fills engines in order**: engine `i` admits only while every
//! lower engine was left with no free lane by its own last admission. Traffic
//! that fits engine 0 therefore stays on it, exactly as on one engine, and
//! only saturated traffic spills onto more cores — a rule over observed lane
//! occupancy, never over a workload. A helper with no occupied lane and
//! nothing it may admit sleeps in the shell; an engine that fills wakes the
//! next (`wakes`).
//!
//! # Fault model
//!
//! The sampler core runs under a **supervisor** ([`Supervisor`]): each
//! generation of the core executes inside `catch_unwind`, and a panic on
//! any engine's thread is contained to that generation. A helper that
//! unwinds ends the generation: the other threads stop after their step,
//! and the helper's panic is re-raised on the sampler-core thread. In-flight
//! requests are answered with typed `500` errors and **quarantined** (their
//! jobs are dropped, never retried into a fresh batch; still-queued jobs are
//! innocent and survive), then the watchdog respawns the core from the
//! shared checkpoint image. Restarts are budgeted over a sliding window;
//! exceeding the budget marks the service [`ServiceHealth::Failed`] and
//! triggers shutdown, so a hard-crash loop cannot spin forever.
//!
//! Per-request **deadlines** bound how long a request may hold lanes: the
//! scheduler sheds queued jobs whose deadline already passed (fail-fast 503)
//! and reaps expired in-flight requests mid-step through the engine's
//! lane-abort predicate ([`BatchEngine::step_into_abortable`]), returning the
//! partial response with a `"timeout"` marker.
//!
//! # Time
//!
//! The policy — admission, shedding, reaping, absorption, the drain deadline
//! and the restart budget — never reads the clock. The scheduler is a state
//! machine: `handle` folds one message into it, `plan(now, ..)` takes the
//! policy half of an engine's turn at the instant `now` it is given — one
//! `now` per turn, for every deadline test, queue wait and trace span in it —
//! and says what the engine does next (a `Plan`), and `hand_over` takes back
//! what its step completed. [`Supervisor`] likewise takes `now` as an
//! argument. Besides the supervisor's restart stamps, the engine shell is
//! the only code of the core that reads the clock or waits: engine 0's
//! thread blocks on the inbox when its plan says `Plan::Idle`, a helper in
//! the shell — each no later than the instant the plan gives, `IDLE_TICK`
//! from its turn. Tests drive the same state machine — one engine, or
//! several interleaved in any order — with made-up instants and
//! hand-delivered filter verdicts, so deadlines, drain and restart budgets
//! are checked exactly, with no threads and no sleeps.
//!
//! # Determinism
//!
//! A request's response body is a pure function of the model checkpoint and
//! the request's own parameters, *regardless of what else the server is
//! doing*:
//!
//! * candidate `i` of a request draws from the RNG stream
//!   [`stream_seed`](clgen::stream_seed)`(request.seed, i)` — independent
//!   of lane assignment, of the engine that runs it and of the other
//!   requests sharing a batch (the [`BatchEngine`] guarantee);
//! * filter verdicts are pure functions of candidate text;
//! * the request's [`Session`] absorbs candidates in candidate order, and the
//!   response covers exactly the candidates up to the `count`-th acceptance
//!   (or all `max_attempts` if the target is never met) — over-dispatched
//!   candidates beyond that deterministic cut are discarded. A
//!   [`Sampler::synthesize`](clgen::Sampler::synthesize) over the same
//!   checkpoint, seed, options and cap reports the same kernels and totals,
//!   at any number of engines.
//!
//! The fault model preserves this: supervisor respawns reload the **same**
//! checkpoint bytes (bit-identical weights), lane aborts cannot influence
//! surviving lanes, and a request that is retried after a `500` therefore
//! reproduces the byte-identical body it would have had without the fault.
//! The supervised-core tests assert exactly that, with a panic on engine 0's
//! thread and on a helper's.
//!
//! The scheduler may *sample* more candidates than a request's response ends
//! up covering (lanes run ahead while earlier candidates are still in the
//! filter); that overshoot costs throughput only, never determinism.

use crate::json;
use crate::metrics::ServeMetrics;
use clgen::crew::{self, Plan, Policy};
use clgen::{
    filter_candidate, spawn_filter_stage, BatchEngine, FilterBatch, Filtered, KernelStats,
    LaneSplit, SampleOptions, Session, StreamedKernel, SynthesisStats, SynthesizedKernel,
    TrainedModel,
};
use clgen_corpus::filter::FilterConfig;
use clgen_corpus::RejectReason;
use clgen_neural::StreamBatch;
use clgen_obs::{FlightRecorder, Trace};
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How often an idle (or draining) sampler thread wakes to take a turn —
/// sweeping deadlines and the drain timer — when nothing wakes it sooner.
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
    /// [`stream_seed`](clgen::stream_seed)`(seed, i)`.
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
    /// One batch of filter verdicts coming back.
    Filtered(Vec<Filtered>),
    /// Drain accepted work, then exit — but no later than `drain_deadline`,
    /// after which remaining jobs are failed with `503` and the core exits
    /// anyway (bounded graceful shutdown).
    Shutdown {
        /// When draining gives up (`None` = unbounded drain).
        drain_deadline: Option<Instant>,
    },
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
/// (`/healthz`, `/stats`). It reads no clock: every method takes the
/// instant it answers for.
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

    /// The restarts within the window that ends at `now` (prunes older ones).
    fn window_at(&self, now: Instant) -> MutexGuard<'_, VecDeque<Instant>> {
        let mut recent = self.recent.lock().expect("supervisor lock");
        while recent
            .front()
            .is_some_and(|&t| now.saturating_duration_since(t) > self.window)
        {
            recent.pop_front();
        }
        recent
    }

    /// Record one restart attempt (a panic respawn or a failed checkpoint
    /// reload) at `now`. Returns `true` — and latches
    /// [`ServiceHealth::Failed`] — the one time the budget is first exceeded
    /// within the window.
    fn record_restart(&self, now: Instant) -> bool {
        let mut recent = self.window_at(now);
        recent.push_back(now);
        self.restarts_total.fetch_add(1, Ordering::SeqCst);
        recent.len() as u32 > self.budget && !self.failed.swap(true, Ordering::SeqCst)
    }

    /// Total sampler-core restarts since boot.
    pub fn restarts(&self) -> u64 {
        self.restarts_total.load(Ordering::SeqCst)
    }

    /// Restarts within the window that ends at `now`.
    pub fn recent_restarts(&self, now: Instant) -> usize {
        self.window_at(now).len()
    }

    /// Service health at `now`: `failed` once the budget is exceeded,
    /// `degraded` while any restart sits within the window, `ok` otherwise.
    pub fn health(&self, now: Instant) -> ServiceHealth {
        if self.failed.load(Ordering::SeqCst) {
            ServiceHealth::Failed
        } else if self.recent_restarts(now) > 0 {
            ServiceHealth::Degraded
        } else {
            ServiceHealth::Ok
        }
    }
}

/// One request being served by the sampler core: its [`Session`], plus what
/// only serving has — a key, a reply channel, a trace and a deadline.
struct ActiveRequest {
    key: u32,
    /// Dispatch bound and in-order tally (drives the kernel lines and the
    /// trailing summary line).
    session: Session,
    options: SampleOptions,
    deadline: Option<Instant>,
    reply: mpsc::Sender<ResponseEvent>,
    /// When the request was activated (starts the `sampling` trace span).
    admitted_at: Instant,
    /// Span accumulator shared with the connection thread.
    trace: Arc<Trace>,
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

/// What the scheduler knows of one engine's lanes.
#[derive(Debug, Clone, Copy)]
struct Seat {
    lanes: usize,
    /// Free lanes the engine's own last admission left (all of them before
    /// its first): what engines above it wait on ([`Scheduler::plan`]).
    free: usize,
    /// Occupied lanes after its last admission or step (`clgen_lanes_busy`).
    occupied: usize,
}

impl Seat {
    fn empty(lanes: usize) -> Seat {
        Seat {
            lanes,
            free: lanes,
            occupied: 0,
        }
    }
}

/// The sampler core's policy: a state machine over messages ([`handle`])
/// and the halves of engine turns taken at given instants ([`plan`],
/// [`hand_over`]).
///
/// [`handle`]: Scheduler::handle
/// [`plan`]: Scheduler::plan
/// [`hand_over`]: Scheduler::hand_over
struct Scheduler {
    filter_tx: mpsc::Sender<FilterBatch>,
    backlog: VecDeque<Job>,
    active: Vec<ActiveRequest>,
    metrics: Arc<ServeMetrics>,
    flight: Arc<FlightRecorder>,
    seed_text: String,
    next_key: u32,
    rr: usize,
    /// Candidates sent to the filter stage whose verdicts are not back yet.
    in_filter: usize,
    /// One per engine, in fill order.
    seats: Vec<Seat>,
    /// Lanes over all engines: what [`Session::wants_dispatch`] bounds.
    lanes: usize,
    max_active: usize,
    shutdown: bool,
    drain_deadline: Option<Instant>,
}

/// Advance every occupied lane of `engine` by one character, reaping lanes
/// whose request key is not in `live` (completed, expired, or its client
/// vanished) instead of sampling them to their budget, and report the lanes
/// to `metrics`. Runs outside the scheduler lock. Returns the candidates
/// that completed.
fn step(
    metrics: &ServeMetrics,
    engine: &mut BatchEngine<'_, impl StreamBatch + ?Sized>,
    live: &[u32],
) -> FilterBatch {
    metrics
        .lane_occupancy
        .observe(engine.occupied_lanes() as u64);
    metrics.lanes_stepped.add(engine.num_lanes() as u64);
    let mut completed = Vec::new();
    engine.step_into_abortable(&mut completed, |t| !live.contains(&ticket_key(t)));
    completed
}

impl Scheduler {
    fn new(
        filter_tx: mpsc::Sender<FilterBatch>,
        metrics: Arc<ServeMetrics>,
        flight: Arc<FlightRecorder>,
        seed_text: String,
        lanes: &[usize],
    ) -> Scheduler {
        let total = lanes.iter().sum::<usize>();
        Scheduler {
            filter_tx,
            backlog: VecDeque::new(),
            active: Vec::new(),
            metrics,
            flight,
            seed_text,
            next_key: 0,
            rr: 0,
            in_filter: 0,
            seats: lanes.iter().map(|&n| Seat::empty(n)).collect(),
            lanes: total,
            max_active: total.max(1),
            shutdown: false,
            drain_deadline: None,
        }
    }

    fn handle(&mut self, msg: SchedMsg) {
        match msg {
            SchedMsg::Job(job) => self.backlog.push_back(job),
            SchedMsg::Shutdown { drain_deadline } => {
                self.shutdown = true;
                self.drain_deadline = drain_deadline;
            }
            SchedMsg::Filtered(batch) => {
                // Counted per candidate, so one batch's verdicts may come
                // back split over several messages. Saturating, as a guard:
                // an underflow would keep the core from ever draining.
                self.in_filter = self.in_filter.saturating_sub(batch.len());
                for item in batch {
                    let key = ticket_key(item.ticket);
                    // A request that already finished (satisfied early,
                    // timed out, or its client went away) simply drops late
                    // verdicts.
                    if let Some(req) = self.active.iter_mut().find(|r| r.key == key) {
                        req.session.deliver(ticket_index(item.ticket), item);
                    }
                }
            }
        }
    }

    fn is_drained(&self) -> bool {
        self.active.is_empty() && self.backlog.is_empty() && self.in_filter == 0
    }

    /// Fold every in-order verdict of every request into its response,
    /// completing requests that reach their target, their attempt cap or
    /// their deadline. The metric counters are bumped *before* the final
    /// `Done` line is sent, so `/stats` (or `/metrics`) read after a
    /// completed response reflects it.
    fn absorb_all(
        &mut self,
        now: Instant,
        engine: &mut BatchEngine<'_, impl StreamBatch + ?Sized>,
    ) {
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
                let stats = req.session.stats();
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
                req.trace
                    .record("sampling", micros_between(req.admitted_at, now));
                req.trace.record("filter", req.session.filter_us());
                let _ = req.reply.send(ResponseEvent::Done(done_line));
            } else {
                i += 1;
            }
        }
    }

    /// Absorb one request's ready verdicts in candidate order. Returns the
    /// rendered summary line once the request is complete.
    fn absorb_request(req: &mut ActiveRequest) -> Option<String> {
        while let Some(StreamedKernel { kernel, stats }) = req.session.next_kernel() {
            let line = render_kernel_line(&kernel, &stats);
            if !req.is_dead() && req.reply.send(ResponseEvent::Kernel(line)).is_err() {
                req.failed = true;
            }
        }
        let met = req.session.target_met();
        // Besides a met target or an exhausted attempt cap, a dead request
        // completes too: its deadline passed mid-flight, or the client went
        // away, so it is answered now with what was absorbed. Its
        // still-outstanding candidates are dropped — their lanes are reaped
        // by the step-abort predicate (so they can never come back), and
        // late filter verdicts are dropped by the key lookup.
        if met || req.is_dead() || req.session.is_complete() {
            return Some(render_done_line(
                req.session.stats(),
                !met,
                req.timed_out && !met,
            ));
        }
        None
    }

    /// Shed queued jobs whose deadline has already passed: fail fast with
    /// `503` + `Retry-After` instead of spending lanes on a request whose
    /// client has stopped waiting.
    fn shed_expired_backlog(&mut self, now: Instant) {
        let metrics = &self.metrics;
        let flight = &self.flight;
        self.backlog.retain(|job| {
            if job.deadline.is_some_and(|d| d <= now) {
                // Recorded here, on the sweep every turn runs — idle ones
                // included — so sheds are counted even with zero concurrent
                // traffic.
                let wait_us = micros_between(job.enqueued_at, now);
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

    /// Mark in-flight requests whose deadline has passed: the next
    /// absorption completes them with their partial results.
    fn reap_expired(&mut self, now: Instant) {
        for req in &mut self.active {
            if !req.timed_out && req.deadline.is_some_and(|d| d <= now) {
                req.timed_out = true;
                self.flight
                    .record("reap", format!("trace={} key={}", req.trace.id(), req.key));
            }
        }
    }

    /// Activate backlog jobs and refill the free lanes of engine `seat`,
    /// round-robin across active requests so no request monopolises the
    /// batch — but only while every lower engine was left full by its own
    /// last admission (engines fill in order).
    fn admit(
        &mut self,
        now: Instant,
        seat: usize,
        engine: &mut BatchEngine<'_, impl StreamBatch + ?Sized>,
    ) {
        while self.active.len() < self.max_active {
            let Some(job) = self.backlog.pop_front() else {
                break;
            };
            // Activation gives the job's place in the queue back.
            drop(job.slot);
            let key = self.next_key;
            self.next_key = self.next_key.wrapping_add(1);
            let wait_us = micros_between(job.enqueued_at, now);
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
            let params = job.params;
            self.active.push(ActiveRequest {
                key,
                session: Session::new(params.seed, params.count, params.max_attempts),
                options: SampleOptions {
                    max_chars: params.max_chars,
                    temperature: params.temperature,
                },
                deadline: job.deadline,
                reply: job.reply,
                cancelled: job.cancelled,
                admitted_at: now,
                trace: job.trace,
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
            self.absorb_all(now, engine);
        }
        let lanes = self.lanes;
        let lower_full = self.seats[..seat].iter().all(|lower| lower.free == 0);
        'lanes: while let Some(lane) = engine.free_lane().filter(|_| lower_full) {
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
                if req.is_dead() || !req.session.wants_dispatch(lanes) {
                    continue;
                }
                let (index, rng_seed) = req.session.dispatch();
                let ticket = ticket(req.key, index);
                if let Some(done) =
                    engine.admit(lane, ticket, &self.seed_text, req.options, rng_seed)
                {
                    // Zero-budget candidates complete at admission; route
                    // them through the filter like any other step's.
                    if self.filter_tx.send(vec![(ticket, done)]).is_ok() {
                        self.in_filter += 1;
                    }
                }
                continue 'lanes;
            }
        }
    }

    fn publish(&self) {
        let busy = self.seats.iter().map(|seat| seat.occupied).sum::<usize>();
        self.metrics.lanes_busy.set(busy as f64);
        self.metrics.active_requests.set(self.active.len() as f64);
    }

    /// Fail every in-flight request with `error`, dropping the requests (the
    /// panic quarantine: an in-flight job is never retried into a fresh
    /// batch). The engines of the failed generation are already gone; the
    /// next generation's start with every lane free.
    fn fail_in_flight(&mut self, error: &ServeError) {
        let n = self.active.len() as u64;
        for req in self.active.drain(..) {
            let _ = req.reply.send(ResponseEvent::Error(error.clone()));
        }
        for seat in &mut self.seats {
            *seat = Seat::empty(seat.lanes);
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
    fn enforce_drain_deadline(&mut self, now: Instant) -> bool {
        if !self.shutdown || self.drain_deadline.is_none_or(|d| now < d) || self.is_drained() {
            return false;
        }
        let error = ServeError::failed(503, "server stopping: drain timeout expired".to_string());
        self.fail_in_flight(&error);
        self.fail_backlog(&error);
        true
    }
}

/// The sampler core's side of the engine shell ([`crew`]): a turn's policy
/// half, the hand-over of its step, and when idle helpers wake.
impl<'a, B: StreamBatch + ?Sized + 'a> Policy<BatchEngine<'a, B>> for Scheduler {
    type Msg = SchedMsg;
    type Step = Vec<u32>;
    type Done = FilterBatch;
    type Output = ();

    fn handle(&mut self, msg: SchedMsg) {
        Scheduler::handle(self, msg);
    }

    /// Enforce the drain deadline, shed expired backlog, reap expired
    /// requests, absorb, admit — and, if a lane of this engine is occupied,
    /// step it with the keys of the requests still live. An idle engine
    /// takes its next turn no later than `IDLE_TICK` from now. A panic
    /// anywhere in a turn (absorption, model compute) aborts only this
    /// generation of the core.
    fn plan(
        &mut self,
        now: Instant,
        seat: usize,
        engine: &mut BatchEngine<'a, B>,
    ) -> Plan<Vec<u32>, ()> {
        if self.enforce_drain_deadline(now) {
            return Plan::Finished(());
        }
        self.shed_expired_backlog(now);
        self.reap_expired(now);
        self.absorb_all(now, engine);
        self.admit(now, seat, engine);
        let occupied = engine.occupied_lanes();
        self.seats[seat] = Seat {
            free: engine.num_lanes() - occupied,
            occupied,
            ..self.seats[seat]
        };
        if occupied == 0 {
            self.publish();
            if self.shutdown && self.is_drained() {
                return Plan::Finished(());
            }
            return Plan::Idle(Some(now + IDLE_TICK));
        }
        Plan::Step(
            self.active
                .iter()
                .filter(|req| !req.is_dead())
                .map(|req| req.key)
                .collect(),
        )
    }

    /// Send what engine `seat`'s step completed to the filter stage. `false`
    /// once the filter stage is gone (nothing can complete any more).
    fn hand_over(
        &mut self,
        _: Instant,
        seat: usize,
        engine: &BatchEngine<'a, B>,
        completed: FilterBatch,
    ) -> bool {
        self.seats[seat].occupied = engine.occupied_lanes();
        if !completed.is_empty() {
            self.flight
                .record("step", format!("completed={}", completed.len()));
            self.in_filter += completed.len();
            if self.filter_tx.send(completed).is_err() {
                return false;
            }
        }
        self.publish();
        true
    }

    /// Engine `seat` and every engine below it are full after their last
    /// admission: the next engine may admit.
    fn wakes(&self, seat: usize) -> bool {
        self.seats[..=seat].iter().all(|s| s.free == 0)
    }

    /// The filter stage delivers the empty batch to the inbox as an empty
    /// [`SchedMsg::Filtered`].
    fn nudge(&self) {
        let _ = self.filter_tx.send(Vec::new());
    }
}

/// Microseconds from `from` to `to` (zero if `to` is earlier).
fn micros_between(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_micros() as u64
}

/// Everything the supervised sampler core needs beyond its inbox: the shared
/// checkpoint image it respawns from, the shared statistics, and the
/// server's shutdown trigger for budget exhaustion.
pub(crate) struct CoreContext {
    /// The server's lanes over one engine per rayon thread of the thread
    /// that started the server (the sampler core's own thread does not
    /// inherit a `rayon::with_num_threads` scope).
    pub split: LaneSplit,
    pub seed_text: String,
    /// Pristine checkpoint image (the bytes of the model the server booted
    /// with); every respawn decodes a fresh model from it.
    pub checkpoint: Arc<Vec<u8>>,
    pub metrics: Arc<ServeMetrics>,
    pub flight: Arc<FlightRecorder>,
    pub supervisor: Arc<Supervisor>,
    /// Server shutdown flag + bound address: budget exhaustion triggers the
    /// same graceful-shutdown path as `POST /shutdown`.
    pub shutdown: Arc<AtomicBool>,
    pub addr: SocketAddr,
    /// Runs before each engine step, on the thread that takes it. The server
    /// sets a no-op; the supervised-core tests panic in it, the seam where a
    /// poisoned step fails.
    pub before_step: Box<dyn Fn() + Send + Sync>,
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
    // Served code stands alone, like anything the sampler accepts offline.
    // Verdicts return to the scheduler inbox as one message per batch; a
    // panicking verdict (a poisoned candidate) becomes a typed rejection
    // instead of wedging every in-flight request.
    let filter_config = FilterConfig::without_shim();
    let (filter_tx, filter_thread) = spawn_filter_stage(
        move |candidate| filter_candidate(&filter_config, candidate),
        move |batch| sched_tx.send(SchedMsg::Filtered(batch)).is_ok(),
    );

    let mut sched = Scheduler::new(
        filter_tx,
        ctx.metrics.clone(),
        ctx.flight.clone(),
        ctx.seed_text.clone(),
        &ctx.split.lanes,
    );

    // The model the server booted with serves the first generation; every
    // respawn decodes a fresh model from the pristine checkpoint image.
    let mut boot_model = Some(model);
    loop {
        let model = match boot_model.take() {
            Some(model) => model,
            None => match TrainedModel::from_bytes(&ctx.checkpoint) {
                Ok(model) => model,
                Err(e) => {
                    ctx.flight.record("reload_failure", format!("{e}"));
                    eprint!("{}", ctx.flight.dump("reload_failure"));
                    eprintln!("clgen-serve: checkpoint reload failed: {e}; retrying");
                    ctx.metrics.supervisor_restarts.inc();
                    if ctx.supervisor.record_restart(Instant::now()) {
                        give_up(&mut sched, &ctx);
                        break;
                    }
                    continue;
                }
            },
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut engines = ctx.split.engines(&model);
            crew::run(
                &mut sched,
                &mut engines,
                ctx.split.threads,
                &rx,
                |engine, live| {
                    (ctx.before_step)();
                    step(&ctx.metrics, engine, &live)
                },
            );
        }));
        match outcome {
            Ok(()) => break,
            Err(payload) => {
                let message = panic_message(payload);
                ctx.flight.record("panic", message.clone());
                // Dump the flight ring before anything else: the recent
                // admissions and steps leading up to the panic are the
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
                if ctx.supervisor.record_restart(Instant::now()) {
                    give_up(&mut sched, &ctx);
                    break;
                }
            }
        }
    }

    // Closing the filter channel ends the filter thread's receive loop.
    drop(sched);
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
    use clgen_corpus::Vocabulary;
    use clgen_neural::ngram::{NgramConfig, NgramModel};
    use clgen_neural::NgramStreams;
    use proptest::prelude::*;

    const LANES: usize = 4;
    const SEED_TEXT: &str = "__kernel void A(";

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// What a whole turn did, as the synchronous tests see it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Turn {
        /// The engine stepped.
        Stepped,
        /// Nothing stepped (see [`Plan::Idle`]).
        Idle(Option<Instant>),
        /// The generation is over.
        Finished,
    }

    impl Scheduler {
        /// One whole turn of a one-engine core at `now`: the policy half,
        /// the step and the hand-over, with no lock and no thread.
        fn turn(&mut self, now: Instant, engine: &mut BatchEngine<'_>) -> Turn {
            match self.plan(now, 0, engine) {
                Plan::Step(live) => {
                    let completed = step(&self.metrics, engine, &live);
                    if self.hand_over(now, 0, engine, completed) {
                        Turn::Stepped
                    } else {
                        Turn::Finished
                    }
                }
                Plan::Idle(until) => Turn::Idle(until),
                Plan::Finished(()) => Turn::Finished,
            }
        }
    }

    /// An n-gram over a few corpus kernels: it steps in microseconds, and
    /// some of what it samples passes the filter.
    fn corpus_model() -> &'static (NgramModel, Vocabulary) {
        static MODEL: std::sync::OnceLock<(NgramModel, Vocabulary)> = std::sync::OnceLock::new();
        MODEL.get_or_init(|| {
            let text = [
                "__kernel void A(__global int* a) { a[get_global_id(0)] += 2; }\n",
                "__kernel void A(__global float* a, float b) { a[get_global_id(0)] *= b; }\n",
                "__kernel void A(__global int* a, __global int* b) { b[get_global_id(0)] = a[1] - 1; }\n",
            ]
            .concat();
            let vocab = Vocabulary::from_text(&text);
            let encoded = vocab.encode(&text);
            (NgramModel::train(&encoded, vocab.len(), NgramConfig::default()), vocab)
        })
    }

    /// A scheduler over one engine of `LANES` lanes whose filter stage is
    /// the returned receiver: the test computes verdicts and delivers them
    /// itself.
    fn scheduler() -> (
        Scheduler,
        mpsc::Receiver<FilterBatch>,
        Arc<ServeMetrics>,
        Arc<FlightRecorder>,
    ) {
        scheduler_over(&[LANES])
    }

    /// [`scheduler`] over one engine per entry of `lanes`.
    fn scheduler_over(
        lanes: &[usize],
    ) -> (
        Scheduler,
        mpsc::Receiver<FilterBatch>,
        Arc<ServeMetrics>,
        Arc<FlightRecorder>,
    ) {
        let (filter_tx, filter_rx) = mpsc::channel();
        let metrics = Arc::new(ServeMetrics::new(Arc::new(clgen_obs::Registry::new())));
        let flight = Arc::new(FlightRecorder::new(64));
        let sched = Scheduler::new(
            filter_tx,
            metrics.clone(),
            flight.clone(),
            SEED_TEXT.to_string(),
            lanes,
        );
        (sched, filter_rx, metrics, flight)
    }

    /// What a test keeps of a job it hands to the scheduler.
    struct Handed {
        reply: mpsc::Receiver<ResponseEvent>,
        slot: Arc<AtomicUsize>,
        cancelled: Arc<AtomicBool>,
        trace: Arc<Trace>,
    }

    impl Handed {
        /// When the job was activated: admission records its queue wait.
        fn activated_at(&self, enqueued_at: Instant) -> Option<Instant> {
            let spans = self.trace.spans();
            let (_, wait_us) = spans.iter().find(|(stage, _)| *stage == "queued")?;
            Some(enqueued_at + Duration::from_micros(*wait_us))
        }
    }

    fn job(
        seed: u64,
        count: usize,
        max_attempts: usize,
        enqueued_at: Instant,
        deadline: Option<Instant>,
    ) -> (Job, Handed) {
        let (reply, rx) = mpsc::channel();
        let handed = Handed {
            reply: rx,
            slot: Arc::new(AtomicUsize::new(1)),
            cancelled: Arc::new(AtomicBool::new(false)),
            trace: Arc::new(Trace::new(format!("job-{seed}"))),
        };
        let job = Job {
            params: SynthesisParams {
                count,
                temperature: 0.9,
                max_chars: 160,
                seed,
                max_attempts,
                deadline_ms: None,
            },
            deadline,
            enqueued_at,
            trace: handed.trace.clone(),
            reply,
            cancelled: handed.cancelled.clone(),
            slot: QueueSlot(handed.slot.clone()),
        };
        (job, handed)
    }

    /// The verdicts of one filter batch, as the filter stage computes them.
    fn verdicts(batch: FilterBatch) -> Vec<Filtered> {
        let config = FilterConfig::without_shim();
        batch
            .into_iter()
            .map(|(ticket, candidate)| Filtered {
                ticket,
                generated_chars: candidate.generated_chars,
                verdict: filter_candidate(&config, &candidate),
                filter_us: 0,
            })
            .collect()
    }

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

    /// With zero concurrent traffic no turn steps, so an expired queued job
    /// can only be shed by an idle turn — the one the shell takes at the
    /// `IDLE_TICK` bound an idle plan gives — and that path must bump the
    /// shed metrics too.
    #[test]
    fn idle_tick_sheds_expired_job_and_records_metrics() {
        let (model, vocab) = corpus_model();
        let mut streams = NgramStreams::new(model, LANES);
        let mut engine = BatchEngine::new(&mut streams, vocab);
        let (mut sched, _filter_rx, metrics, flight) = scheduler();
        // No lane capacity: the job can never activate, exactly like a
        // server with zero concurrent traffic ahead of admission.
        sched.max_active = 0;
        let t0 = Instant::now();
        let (job, handed) = job(7, 1, 4, t0, Some(t0 + ms(50)));
        sched.handle(SchedMsg::Job(job));

        // The shed lands on the first turn at or past the deadline, and not
        // on the turn before.
        assert_eq!(
            sched.turn(t0 + ms(49), &mut engine),
            Turn::Idle(Some(t0 + ms(49) + IDLE_TICK))
        );
        assert!(
            handed.reply.try_recv().is_err(),
            "not shed before its deadline"
        );
        assert_eq!(handed.slot.load(Ordering::SeqCst), 1);
        assert_eq!(
            sched.turn(t0 + ms(50), &mut engine),
            Turn::Idle(Some(t0 + ms(50) + IDLE_TICK))
        );
        match handed.reply.try_recv() {
            Ok(ResponseEvent::Error(e)) => {
                assert_eq!(e.status, 503);
                assert_eq!(e.retry_after, Some(1));
                assert_eq!(e.message, "deadline expired while queued");
                assert_eq!(e.outcome, "shed");
            }
            other => panic!("expected shed error, got {other:?}"),
        }
        // The sweep drops the shed job, and with it the job's queue slot.
        assert_eq!(
            handed.slot.load(Ordering::SeqCst),
            0,
            "shedding must release the queue slot"
        );
        assert_eq!(metrics.requests_shed.get(), 1);
        assert_eq!(metrics.queue_wait_shed.count(), 1);
        assert!(
            flight.snapshot().iter().any(|e| e.kind == "shed"),
            "flight ring records the shed"
        );

        sched.handle(SchedMsg::Shutdown {
            drain_deadline: None,
        });
        assert_eq!(sched.turn(t0 + ms(50), &mut engine), Turn::Finished);
    }

    /// A job whose deadline passes before the turn that would activate it is
    /// shed with a fail-fast `503` — also when it arrives while lanes are
    /// busy, the path on which it used to be activated and answered `200`
    /// with a `"timeout"` partial.
    #[test]
    fn expired_job_is_shed_never_activated() {
        let (model, vocab) = corpus_model();
        let mut streams = NgramStreams::new(model, LANES);
        let mut engine = BatchEngine::new(&mut streams, vocab);
        let (mut sched, _filter_rx, metrics, _flight) = scheduler();
        let t0 = Instant::now();
        let (busy, _busy) = job(1, 3, 24, t0, None);
        sched.handle(SchedMsg::Job(busy));
        assert_eq!(sched.turn(t0, &mut engine), Turn::Stepped);
        assert!(engine.occupied_lanes() > 0, "a lane is busy");

        let (late, handed) = job(2, 1, 4, t0, Some(t0 + ms(1)));
        sched.handle(SchedMsg::Job(late));
        assert_eq!(sched.turn(t0 + ms(1), &mut engine), Turn::Stepped);
        match handed.reply.try_recv() {
            Ok(ResponseEvent::Error(e)) => {
                assert_eq!(e.status, 503);
                assert_eq!(e.retry_after, Some(1));
                assert_eq!(e.outcome, "shed");
            }
            other => panic!("expected shed error, got {other:?}"),
        }
        assert_eq!(metrics.requests_shed.get(), 1);
        assert_eq!(metrics.requests_completed.get(), 0);
        assert_eq!(sched.active.len(), 1, "only the busy job is active");
        assert_eq!(
            handed.activated_at(t0),
            None,
            "the job never entered active"
        );
        assert_eq!(handed.slot.load(Ordering::SeqCst), 0);
    }

    /// Engines fill in order: traffic that fits engine 0 never reaches
    /// engine 1, and only traffic that leaves engine 0 full spills over.
    #[test]
    fn engines_fill_in_order() {
        let (model, vocab) = corpus_model();
        let (mut a, mut b) = (NgramStreams::new(model, 4), NgramStreams::new(model, 4));
        let mut engines = [
            BatchEngine::new(&mut a, vocab),
            BatchEngine::new(&mut b, vocab),
        ];
        let (mut sched, _filter_rx, metrics, _) = scheduler_over(&[4, 4]);
        let t0 = Instant::now();
        // count = 1: at most four candidates out, so engine 0 takes them all.
        let (narrow, _narrow) = job(1, 1, 24, t0, None);
        sched.handle(SchedMsg::Job(narrow));
        let idle = Plan::Idle(Some(t0 + IDLE_TICK));
        assert_eq!(sched.plan(t0, 1, &mut engines[1]), idle);
        assert!(matches!(sched.plan(t0, 0, &mut engines[0]), Plan::Step(_)));
        assert_eq!(engines[0].occupied_lanes(), 4);
        assert_eq!(
            sched.plan(t0, 1, &mut engines[1]),
            idle,
            "engine 0 is full, but the job may send no more"
        );
        // count = 3: twelve may go out, and engine 1 takes the spill.
        let (wide, _wide) = job(2, 3, 24, t0, None);
        sched.handle(SchedMsg::Job(wide));
        let Plan::Step(live) = sched.plan(t0, 1, &mut engines[1]) else {
            panic!("engine 1 steps the spill");
        };
        assert_eq!(live, [0, 1]);
        assert_eq!(engines[1].occupied_lanes(), 4);
        let completed = step(&sched.metrics, &mut engines[1], &live);
        assert!(sched.hand_over(t0, 1, &engines[1], completed));
        assert_eq!(
            metrics.lanes_busy.get() as usize,
            4 + engines[1].occupied_lanes(),
            "lanes_busy sums the engines"
        );
        assert_eq!(metrics.lane_occupancy.count(), 1, "one engine step");
        assert_eq!(metrics.lanes_stepped.get(), 4);
    }

    /// A batch whose steps panic — in the step, outside the scheduler lock,
    /// or, with `in_prime`, already when a candidate is admitted under it.
    struct Panicking {
        streams: NgramStreams<'static>,
        in_prime: bool,
    }

    impl StreamBatch for Panicking {
        fn vocab_size(&self) -> usize {
            self.streams.vocab_size()
        }
        fn num_streams(&self) -> usize {
            self.streams.num_streams()
        }
        fn reset(&mut self) {
            self.streams.reset();
        }
        fn reset_stream(&mut self, stream: usize) {
            self.streams.reset_stream(stream);
        }
        fn feed_many(&mut self, _: &[(usize, u32)]) {
            panic!("a poisoned step");
        }
        fn probs_into(&self, stream: usize, out: &mut Vec<f32>) {
            self.streams.probs_into(stream, out);
        }
        fn prime(&mut self, stream: usize, ids: &[u32]) {
            if self.in_prime {
                panic!("a poisoned step");
            }
            self.streams.prime(stream, ids);
        }
    }

    /// A helper engine that panics ends its generation in its own panic, as
    /// a panic on the sampler-core thread does: engine 0's thread, blocked
    /// on the inbox, is woken, no thread outlives the generation, and the
    /// supervisor's quarantine then fails the in-flight request with a 500
    /// while the queued job survives — also when the helper panicked
    /// holding the scheduler lock.
    #[test]
    fn a_helper_that_panics_ends_the_generation_in_its_panic() {
        let (model, vocab) = corpus_model();
        for in_prime in [false, true] {
            let mut engines: Vec<BatchEngine<'_, dyn StreamBatch + Send>> = vec![
                BatchEngine::boxed(Box::new(NgramStreams::new(model, 1)), vocab),
                BatchEngine::boxed(
                    Box::new(Panicking {
                        streams: NgramStreams::new(model, 1),
                        in_prime,
                    }),
                    vocab,
                ),
            ];
            // A real filter stage: verdicts keep coming back, so the
            // in-flight job keeps dispatching until engine 1 takes a share.
            let (inbox_tx, inbox) = mpsc::channel();
            let verdicts_tx = inbox_tx.clone();
            let (filter_tx, filter_thread) = spawn_filter_stage(
                |candidate| filter_candidate(&FilterConfig::without_shim(), candidate),
                move |batch| verdicts_tx.send(SchedMsg::Filtered(batch)).is_ok(),
            );
            let metrics = Arc::new(ServeMetrics::new(Arc::new(clgen_obs::Registry::new())));
            let flight = Arc::new(FlightRecorder::new(64));
            let mut sched =
                Scheduler::new(filter_tx, metrics, flight, SEED_TEXT.to_string(), &[1, 1]);
            // One request at a time, so the second job stays queued.
            sched.max_active = 1;
            let t0 = Instant::now();
            // A target the job never meets: it wants more lanes than engine
            // 0 has for as long as the generation runs.
            let (in_flight, in_flight_handed) = job(1, 1 << 20, 1 << 20, t0, None);
            let (queued, queued_handed) = job(2, 1, 64, t0, None);
            inbox_tx.send(SchedMsg::Job(in_flight)).expect("inbox");
            inbox_tx.send(SchedMsg::Job(queued)).expect("inbox");

            let metrics = sched.metrics.clone();
            let ended = catch_unwind(AssertUnwindSafe(|| {
                crew::run(&mut sched, &mut engines, 1, &inbox, |engine, live| {
                    step(&metrics, engine, &live)
                })
            }));
            let payload = ended.expect_err("the helper's panic ends the generation");
            assert_eq!(
                panic_message(payload),
                "a poisoned step",
                "in_prime={in_prime}"
            );

            sched.fail_in_flight(&ServeError::failed(500, "sampler core panicked".into()));
            // Kernel lines may have streamed; the request ends in a 500.
            match in_flight_handed.reply.try_iter().last() {
                Some(ResponseEvent::Error(e)) => assert_eq!(e.status, 500),
                other => panic!("expected a 500, got {other:?}"),
            }
            assert!(
                queued_handed.reply.try_recv().is_err(),
                "the queued job waits"
            );
            assert_eq!(queued_handed.slot.load(Ordering::SeqCst), 1);
            assert_eq!(sched.backlog.len(), 1, "and survives the quarantine");
            // Dropping the scheduler closes the filter stage's input.
            drop(sched);
            filter_thread.join().expect("the filter stage ends");
        }
    }

    #[test]
    fn supervisor_window_accounting() {
        let now = Instant::now();
        let sup = Supervisor::new(2, Duration::from_secs(3600));
        assert_eq!(sup.health(now), ServiceHealth::Ok);
        assert!(!sup.record_restart(now));
        assert_eq!(sup.health(now), ServiceHealth::Degraded);
        assert!(!sup.record_restart(now));
        assert!(sup.record_restart(now), "third restart exceeds budget 2");
        assert_eq!(sup.health(now), ServiceHealth::Failed);
        assert_eq!(sup.restarts(), 3);
    }

    #[test]
    fn supervisor_window_expires_restarts() {
        let t0 = Instant::now();
        let sup = Supervisor::new(0, ms(30));
        assert!(
            sup.record_restart(t0),
            "budget 0 fails on the first restart"
        );
        assert_eq!(sup.recent_restarts(t0 + ms(60)), 0, "window pruned");
        // Failure latches even after the window empties — exactly once:
        // later restarts do not report it again, and it never clears.
        assert_eq!(sup.health(t0 + ms(60)), ServiceHealth::Failed);
        assert!(!sup.record_restart(t0 + ms(61)));
        assert!(!sup.record_restart(t0 + ms(62)));
        assert_eq!(
            sup.health(t0 + Duration::from_secs(3600)),
            ServiceHealth::Failed
        );

        // Degraded returns to Ok once the window has passed.
        let sup = Supervisor::new(1, ms(30));
        assert!(!sup.record_restart(t0));
        assert_eq!(sup.health(t0 + ms(30)), ServiceHealth::Degraded);
        assert_eq!(sup.health(t0 + ms(31)), ServiceHealth::Ok);
        assert!(!sup.record_restart(t0 + ms(40)), "alone in its window");
        assert!(
            sup.record_restart(t0 + ms(50)),
            "second within 30 ms exceeds budget 1"
        );
        assert_eq!(sup.health(t0 + ms(100)), ServiceHealth::Failed);
        assert_eq!(sup.restarts(), 3);
    }

    /// The lines a job streams when it runs alone and every verdict comes
    /// back in order, as soon as its batch is sent.
    fn alone(seed: u64, count: usize, max_attempts: usize) -> Vec<String> {
        let (model, vocab) = corpus_model();
        let mut streams = NgramStreams::new(model, LANES);
        let mut engine = BatchEngine::new(&mut streams, vocab);
        let (mut sched, filter_rx, _, _) = scheduler();
        let now = Instant::now();
        let (job, handed) = job(seed, count, max_attempts, now, None);
        sched.handle(SchedMsg::Job(job));
        let mut lines = Vec::new();
        loop {
            sched.turn(now, &mut engine);
            while let Ok(batch) = filter_rx.try_recv() {
                sched.handle(SchedMsg::Filtered(verdicts(batch)));
            }
            while let Ok(event) = handed.reply.try_recv() {
                match event {
                    ResponseEvent::Kernel(line) => lines.push(line),
                    ResponseEvent::Done(line) => {
                        lines.push(line);
                        return lines;
                    }
                    ResponseEvent::Error(e) => panic!("a lone job failed: {e:?}"),
                }
            }
        }
    }

    /// `(kernels, attempts, Σ rejected)` of a done line.
    fn done_totals(line: &str) -> (usize, usize, usize) {
        let field = |name: &str| -> usize {
            let rest = &line[line.find(name).expect(name) + name.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().expect("a count")
        };
        let rejected = &line[line.find("\"rejected\":{").expect("rejected") + 12..];
        let rejected = &rejected[..rejected.find('}').expect("closing brace")];
        let sum = rejected
            .split(',')
            .filter(|entry| !entry.is_empty())
            .map(|entry| {
                entry
                    .rsplit(':')
                    .next()
                    .unwrap()
                    .parse::<usize>()
                    .expect("a count")
            })
            .sum();
        (field("\"kernels\":"), field("\"attempts\":"), sum)
    }

    /// One event of a generated sequence.
    #[derive(Debug, Clone)]
    enum Event {
        Enqueue {
            seed: u64,
            count: usize,
            max_attempts: usize,
            deadline_ms: Option<u64>,
        },
        Cancel(usize),
        Advance(u64),
        Turn,
        /// Deliver the first `1 + take % len` verdicts of the `pick`-th
        /// outstanding batch: batches arrive shuffled and split.
        Deliver {
            pick: usize,
            take: usize,
        },
        Shutdown {
            drain_ms: Option<u64>,
        },
    }

    fn event() -> impl Strategy<Value = Event> {
        (
            0u8..32,
            0u64..4,
            1usize..=3,
            1usize..=24,
            0u64..60,
            0usize..64,
        )
            .prop_map(|(kind, seed, count, max_attempts, x, n)| match kind {
                0..=5 => Event::Enqueue {
                    seed,
                    count,
                    max_attempts,
                    deadline_ms: (x < 30).then_some(x + 1),
                },
                6..=7 => Event::Cancel(n),
                8..=11 => Event::Advance(1 + x % 20),
                12..=21 => Event::Turn,
                22..=30 => Event::Deliver {
                    pick: n,
                    take: x as usize,
                },
                _ => Event::Shutdown {
                    drain_ms: (x % 2 == 1).then_some(x / 2),
                },
            })
    }

    /// One job as the property test follows it.
    struct Tracked {
        params: (u64, usize, usize),
        enqueued_at: Instant,
        deadline: Option<Instant>,
        handed: Handed,
        events: Vec<ResponseEvent>,
    }

    impl Tracked {
        fn is_terminal(&self) -> bool {
            self.events
                .iter()
                .any(|e| matches!(e, ResponseEvent::Done(_) | ResponseEvent::Error(_)))
        }
    }

    /// A scheduler, its engine and its jobs under a virtual clock.
    struct Rig<'m> {
        sched: Scheduler,
        engine: BatchEngine<'m>,
        filter_rx: mpsc::Receiver<FilterBatch>,
        metrics: Arc<ServeMetrics>,
        /// Verdict batches computed but not delivered yet.
        outstanding: Vec<Vec<Filtered>>,
        jobs: Vec<Tracked>,
        now: Instant,
        shutdown: bool,
        drain_deadline: Option<Instant>,
        finished: bool,
    }

    impl Rig<'_> {
        fn apply(&mut self, event: Event) {
            if self.finished {
                return;
            }
            match event {
                Event::Enqueue {
                    seed,
                    count,
                    max_attempts,
                    deadline_ms,
                } => {
                    let deadline = deadline_ms.map(|d| self.now + ms(d));
                    let (job, handed) = job(seed, count, max_attempts, self.now, deadline);
                    self.sched.handle(SchedMsg::Job(job));
                    self.jobs.push(Tracked {
                        params: (seed, count, max_attempts),
                        enqueued_at: self.now,
                        deadline,
                        handed,
                        events: Vec::new(),
                    });
                }
                Event::Cancel(n) => {
                    if !self.jobs.is_empty() {
                        let job = &self.jobs[n % self.jobs.len()];
                        job.handed.cancelled.store(true, Ordering::Relaxed);
                    }
                }
                Event::Advance(d) => self.now += ms(d),
                Event::Turn => self.turn(),
                Event::Deliver { pick, take } => {
                    if !self.outstanding.is_empty() {
                        let mut batch = self.outstanding.swap_remove(pick % self.outstanding.len());
                        let rest = batch.split_off(1 + take % batch.len());
                        if !rest.is_empty() {
                            self.outstanding.push(rest);
                        }
                        self.sched.handle(SchedMsg::Filtered(batch));
                    }
                }
                Event::Shutdown { drain_ms } => {
                    if !self.shutdown {
                        self.shutdown = true;
                        self.drain_deadline = drain_ms.map(|d| self.now + ms(d));
                        self.sched.handle(SchedMsg::Shutdown {
                            drain_deadline: self.drain_deadline,
                        });
                    }
                }
            }
        }

        fn turn(&mut self) {
            let now = self.now;
            let turn = self.sched.turn(now, &mut self.engine);
            // (7) The first turn at or past the drain deadline ends the run.
            if self.drain_deadline.is_some_and(|d| now >= d) {
                assert_eq!(turn, Turn::Finished, "turn at or past the drain deadline");
            }
            self.finished = turn == Turn::Finished;
            while let Ok(batch) = self.filter_rx.try_recv() {
                self.outstanding.push(verdicts(batch));
            }
            for job in &mut self.jobs {
                while let Ok(event) = job.handed.reply.try_recv() {
                    if let ResponseEvent::Error(e) = &event {
                        if e.outcome == "shed" {
                            assert!(
                                job.deadline.is_some_and(|d| d <= now),
                                "shed before its deadline"
                            );
                        }
                    }
                    job.events.push(event);
                }
                // (5) No job is activated at or after its deadline, and a
                // job still queued at its deadline is shed on this turn.
                match job.handed.activated_at(job.enqueued_at) {
                    Some(at) => assert!(job.deadline.is_none_or(|d| at < d), "activated expired"),
                    None if !job.is_terminal() => {
                        assert!(
                            job.deadline.is_none_or(|d| now < d),
                            "an expired job still queued"
                        )
                    }
                    None => {}
                }
            }
        }

        /// Deliver every outstanding verdict and turn, without moving the
        /// clock, until the run is over; shut down first if nobody did.
        fn settle(&mut self) {
            for _ in 0..200_000 {
                if self.finished {
                    return;
                }
                while let Some(batch) = self.outstanding.pop() {
                    self.sched.handle(SchedMsg::Filtered(batch));
                }
                self.turn();
                if !self.shutdown && self.jobs.iter().all(Tracked::is_terminal) {
                    self.apply(Event::Shutdown { drain_ms: None });
                }
            }
            panic!("the scheduler never settled");
        }
    }

    /// Where one engine of an interleaved set is in its turn.
    enum Phase {
        Ready,
        Planned(Vec<u32>),
        Stepped(FilterBatch),
    }

    /// One move of an interleaving: an engine takes the next part of its
    /// turn, or verdicts come back (as in [`Event::Deliver`]).
    #[derive(Debug, Clone)]
    enum Move {
        Part(usize),
        Deliver { pick: usize, take: usize },
    }

    fn moves() -> impl Strategy<Value = Move> {
        (0u8..4, 0usize..64, 0usize..64).prop_map(|(kind, a, b)| match kind {
            0..=2 => Move::Part(a % 2),
            _ => Move::Deliver { pick: a, take: b },
        })
    }

    /// Take the next part of engine `seat`'s turn: the policy half under
    /// the lock, the step outside it, or the hand-over back under it.
    fn part(sched: &mut Scheduler, seat: usize, engine: &mut BatchEngine<'_>, phase: &mut Phase) {
        let now = Instant::now();
        *phase = match std::mem::replace(phase, Phase::Ready) {
            Phase::Ready => match sched.plan(now, seat, engine) {
                Plan::Step(live) => Phase::Planned(live),
                _ => Phase::Ready,
            },
            Phase::Planned(live) => Phase::Stepped(step(&sched.metrics, engine, &live)),
            Phase::Stepped(completed) => {
                assert!(sched.hand_over(now, seat, engine, completed));
                Phase::Ready
            }
        };
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under any order of arrivals, cancels, clock moves, turns and
        /// (shuffled, split) verdict deliveries, the scheduler answers every
        /// job exactly once, streams completed jobs byte for byte as if they
        /// ran alone, leaks no lane, never activates an expired job, keeps
        /// its books, and ends by its drain deadline.
        #[test]
        fn scheduler_policy_holds_under_any_event_order(
            events in proptest::collection::vec(event(), 1..40),
        ) {
            let (model, vocab) = corpus_model();
            let mut streams = NgramStreams::new(model, LANES);
            let (sched, filter_rx, metrics, _) = scheduler();
            let mut rig = Rig {
                sched,
                engine: BatchEngine::new(&mut streams, vocab),
                filter_rx,
                metrics,
                outstanding: Vec::new(),
                jobs: Vec::new(),
                now: Instant::now(),
                shutdown: false,
                drain_deadline: None,
                finished: false,
            };
            for event in events {
                rig.apply(event);
            }
            rig.settle();

            let drained = rig.sched.is_drained();
            if rig.drain_deadline.is_none_or(|d| rig.now < d) {
                // (4) A run that drained leaks no lane and no filter batch.
                prop_assert!(drained);
                prop_assert_eq!(rig.engine.occupied_lanes(), 0);
                prop_assert!(rig.outstanding.is_empty());
            }
            let metrics = &rig.metrics;
            // (6) Every job is counted under exactly one outcome.
            prop_assert_eq!(
                metrics.requests_completed.get() + metrics.requests_shed.get() + metrics.requests_failed.get(),
                rig.jobs.len() as u64
            );
            for job in &rig.jobs {
                // (1) Exactly one terminal event, the last, and the slot back.
                let terminals = job.events.iter().filter(|e| !matches!(e, ResponseEvent::Kernel(_))).count();
                prop_assert_eq!(terminals, 1, "{:?}", job.events);
                prop_assert!(!matches!(job.events.last(), Some(ResponseEvent::Kernel(_))));
                prop_assert_eq!(job.handed.slot.load(Ordering::SeqCst), 0);
                let Some(ResponseEvent::Done(done)) = job.events.last() else {
                    continue;
                };
                // (3) The books balance on every done line.
                let (kernels, attempts, rejected) = done_totals(done);
                prop_assert_eq!(attempts, kernels + rejected, "{}", done);
                // (2) A job that ran to completion streams what it streams alone.
                if !done.contains("\"timeout\"") && !job.handed.cancelled.load(Ordering::Relaxed) {
                    let lines: Vec<String> = job.events.iter().map(|e| match e {
                        ResponseEvent::Kernel(line) | ResponseEvent::Done(line) => line.clone(),
                        ResponseEvent::Error(e) => panic!("{e:?}"),
                    }).collect();
                    let (seed, count, max_attempts) = job.params;
                    prop_assert_eq!(lines, alone(seed, count, max_attempts));
                }
            }
        }

        /// Two engines' turns interleaved in any order — a step outside the
        /// lock racing the other engine's policy half and hand-over, verdicts
        /// delivered shuffled and split — stream every job byte for byte as
        /// it streams alone on one engine.
        #[test]
        fn interleaved_engines_stream_what_a_job_streams_alone(
            jobs in proptest::collection::vec((0u64..4, 1usize..=3, 1usize..=24), 1..4),
            moves in proptest::collection::vec(moves(), 0..300),
        ) {
            let (model, vocab) = corpus_model();
            let (mut a, mut b) = (NgramStreams::new(model, 2), NgramStreams::new(model, 2));
            let mut engines = [BatchEngine::new(&mut a, vocab), BatchEngine::new(&mut b, vocab)];
            let mut phases = [Phase::Ready, Phase::Ready];
            let (mut sched, filter_rx, _, _) = scheduler_over(&[2, 2]);
            let now = Instant::now();
            let handed: Vec<Handed> = jobs
                .iter()
                .map(|&(seed, count, max_attempts)| {
                    let (job, handed) = job(seed, count, max_attempts, now, None);
                    sched.handle(SchedMsg::Job(job));
                    handed
                })
                .collect();
            let mut outstanding: Vec<Vec<Filtered>> = Vec::new();
            let mut lines: Vec<Vec<String>> = vec![Vec::new(); jobs.len()];
            let mut done = 0;
            let settle = (0..200_000).map(|i| if i % 2 == 0 { Move::Deliver { pick: 0, take: 63 } } else { Move::Part(i / 2 % 2) });
            for next in moves.into_iter().chain(settle) {
                if done == jobs.len() {
                    break;
                }
                match next {
                    Move::Part(seat) => part(&mut sched, seat, &mut engines[seat], &mut phases[seat]),
                    Move::Deliver { pick, take } => {
                        if !outstanding.is_empty() {
                            let mut batch = outstanding.swap_remove(pick % outstanding.len());
                            let rest = batch.split_off(1 + take % batch.len());
                            if !rest.is_empty() {
                                outstanding.push(rest);
                            }
                            sched.handle(SchedMsg::Filtered(batch));
                        }
                    }
                }
                outstanding.extend(filter_rx.try_iter().map(verdicts));
                for (lines, handed) in lines.iter_mut().zip(&handed) {
                    for event in handed.reply.try_iter() {
                        match event {
                            ResponseEvent::Kernel(line) => lines.push(line),
                            ResponseEvent::Done(line) => {
                                lines.push(line);
                                done += 1;
                            }
                            ResponseEvent::Error(e) => panic!("{e:?}"),
                        }
                    }
                }
            }
            prop_assert_eq!(done, jobs.len(), "every job is answered");
            for (&(seed, count, max_attempts), lines) in jobs.iter().zip(lines) {
                prop_assert_eq!(lines, alone(seed, count, max_attempts));
            }
        }
    }

    /// The supervised sampler core, run over its inbox as `Server::start`
    /// runs it — a real filter stage and real respawns — with no socket and
    /// no sleep. A test poisons a step through `CoreContext::before_step`,
    /// on the thread that takes it.
    mod supervised {
        use super::*;
        use std::sync::Condvar;
        use std::thread;

        const CORE_THREAD: &str = "sampler-core";

        /// The splits the tests run at: one engine, and two (engine 0 on the
        /// core thread, engine 1 on a helper).
        fn splits() -> [LaneSplit; 2] {
            [clgen::lane_split(4, 1), clgen::lane_split(4, 2)]
        }

        fn on_core_thread() -> bool {
            thread::current().name() == Some(CORE_THREAD)
        }

        /// A `before_step` hook that panics on the first step taken on a
        /// helper's thread (`on_helper`) or on the core thread. With
        /// `on_helper`, engine 0's first step waits until a helper is at its
        /// own, so that the panic strikes before any candidate completes.
        fn poison_first_step(on_helper: bool) -> Box<dyn Fn() + Send + Sync> {
            let fired = AtomicBool::new(false);
            let core_waited = AtomicBool::new(false);
            let helper_arrived = (Mutex::new(false), Condvar::new());
            Box::new(move || {
                let (arrived, signal) = &helper_arrived;
                if on_core_thread() != on_helper {
                    if !fired.swap(true, Ordering::SeqCst) {
                        *arrived.lock().expect("arrival flag") = true;
                        signal.notify_all();
                        panic!("a poisoned step");
                    }
                } else if on_helper && !core_waited.swap(true, Ordering::SeqCst) {
                    let arrived = arrived.lock().expect("arrival flag");
                    drop(signal.wait_while(arrived, |arrived| !*arrived));
                }
            })
        }

        fn poison_every_step() -> Box<dyn Fn() + Send + Sync> {
            Box::new(|| panic!("a poisoned step"))
        }

        /// The corpus n-gram as a model the core boots with.
        fn boot_model() -> TrainedModel {
            let (model, vocab) = corpus_model();
            TrainedModel::from_parts(vocab.clone(), Box::new(model.clone())).expect("a model")
        }

        /// What a test keeps of a sampler core it started.
        struct Core {
            inbox: mpsc::Sender<SchedMsg>,
            metrics: Arc<ServeMetrics>,
            flight: Arc<FlightRecorder>,
            supervisor: Arc<Supervisor>,
            shutdown: Arc<AtomicBool>,
            thread: thread::JoinHandle<()>,
        }

        impl Core {
            /// Start a core on `split` that respawns from `image`, with
            /// `jobs` already in its inbox (so its first turn activates them
            /// together).
            fn start(
                split: LaneSplit,
                image: Vec<u8>,
                budget: u32,
                before_step: Box<dyn Fn() + Send + Sync>,
                jobs: Vec<Job>,
            ) -> Core {
                let (inbox, rx) = mpsc::channel();
                for job in jobs {
                    inbox.send(SchedMsg::Job(job)).expect("inbox");
                }
                let metrics = Arc::new(ServeMetrics::new(Arc::new(clgen_obs::Registry::new())));
                let flight = Arc::new(FlightRecorder::new(256));
                let supervisor = Arc::new(Supervisor::new(budget, Duration::from_secs(3600)));
                let shutdown = Arc::new(AtomicBool::new(false));
                let ctx = CoreContext {
                    split,
                    seed_text: SEED_TEXT.to_string(),
                    checkpoint: Arc::new(image),
                    metrics: metrics.clone(),
                    flight: flight.clone(),
                    supervisor: supervisor.clone(),
                    shutdown: shutdown.clone(),
                    // Nothing listens on port 0: the wake-up a given-up core
                    // sends the accept loop fails at once.
                    addr: SocketAddr::from(([127, 0, 0, 1], 0)),
                    before_step,
                };
                let core_tx = inbox.clone();
                let thread = thread::Builder::new()
                    .name(CORE_THREAD.to_string())
                    .spawn(move || run_sampler_core(boot_model(), ctx, rx, core_tx))
                    .expect("spawn the core");
                Core {
                    inbox,
                    metrics,
                    flight,
                    supervisor,
                    shutdown,
                    thread,
                }
            }

            /// Shut the core down and wait for its thread.
            fn stop(self) {
                let _ = self.inbox.send(SchedMsg::Shutdown {
                    drain_deadline: None,
                });
                self.thread.join().expect("the core thread returns");
            }
        }

        /// Every event of a job up to and including its terminal one.
        fn answer(handed: &Handed) -> Vec<ResponseEvent> {
            let mut events = Vec::new();
            loop {
                let event = handed
                    .reply
                    .recv_timeout(Duration::from_secs(120))
                    .expect("the job is answered");
                let terminal = !matches!(event, ResponseEvent::Kernel(_));
                events.push(event);
                if terminal {
                    return events;
                }
            }
        }

        fn status(events: &[ResponseEvent]) -> u16 {
            match events.last() {
                Some(ResponseEvent::Error(e)) => e.status,
                Some(ResponseEvent::Done(_)) => 200,
                other => panic!("not a terminal event: {other:?}"),
            }
        }

        fn lines(events: Vec<ResponseEvent>) -> Vec<String> {
            events
                .into_iter()
                .map(|e| match e {
                    ResponseEvent::Kernel(line) | ResponseEvent::Done(line) => line,
                    ResponseEvent::Error(e) => panic!("{e:?}"),
                })
                .collect()
        }

        /// The job every test submits: two kernels wanted, so it spills
        /// onto engine 1 at two engines.
        fn probe_job() -> (Job, Handed) {
            job(5, 2, 24, Instant::now(), None)
        }

        /// A panic on engine 0's thread or on a helper's fails the jobs in
        /// flight with a 500 and costs exactly one restart; the respawned
        /// core streams a resubmitted job byte for byte as a fault-free core
        /// does.
        #[test]
        fn a_panic_fails_in_flight_and_the_respawn_streams_fault_free_bytes() {
            let image = boot_model().to_bytes();
            for split in splits() {
                let engines = split.lanes.len();
                let (reference, handed) = probe_job();
                let core = Core::start(
                    split.clone(),
                    image.clone(),
                    3,
                    Box::new(|| {}),
                    vec![reference],
                );
                let fault_free = lines(answer(&handed));
                assert!(fault_free.len() > 1, "the probe job streams kernels");
                core.stop();

                for on_helper in [false, true].into_iter().take(engines) {
                    let case = format!("{engines} engine(s), poisoned on a helper: {on_helper}");
                    let (first, first_handed) = probe_job();
                    let (second, second_handed) = job(6, 1, 24, Instant::now(), None);
                    let core = Core::start(
                        split.clone(),
                        image.clone(),
                        3,
                        poison_first_step(on_helper),
                        vec![first, second],
                    );
                    for handed in [&first_handed, &second_handed] {
                        let events = answer(handed);
                        assert_eq!(status(&events), 500, "{case}");
                        let Some(ResponseEvent::Error(e)) = events.last() else {
                            unreachable!()
                        };
                        assert_eq!(e.message, "sampler core panicked: a poisoned step");
                    }
                    let (again, again_handed) = probe_job();
                    core.inbox.send(SchedMsg::Job(again)).expect("inbox");
                    assert_eq!(lines(answer(&again_handed)), fault_free, "{case}");
                    assert_eq!(core.metrics.supervisor_restarts.get(), 1, "{case}");
                    let metrics = core.metrics.registry.render_prometheus();
                    assert!(
                        metrics
                            .lines()
                            .any(|l| l == "clgen_supervisor_restarts_total 1"),
                        "{case}: {metrics}"
                    );
                    assert_eq!(core.metrics.requests_failed.get(), 2, "{case}");
                    assert_eq!(
                        core.supervisor.health(Instant::now()),
                        ServiceHealth::Degraded
                    );
                    core.stop();
                }
            }
        }

        /// A panic on engine 0's thread or on a helper's leaves its event in
        /// the flight ring, and the ring's dump leads with the
        /// `sampler_panic` header the core writes to stderr.
        #[test]
        fn a_panic_leaves_its_trail_in_the_flight_ring() {
            let image = boot_model().to_bytes();
            for split in splits() {
                let engines = split.lanes.len();
                for on_helper in [false, true].into_iter().take(engines) {
                    let case = format!("{engines} engine(s), poisoned on a helper: {on_helper}");
                    let (job, handed) = probe_job();
                    let core = Core::start(
                        split.clone(),
                        image.clone(),
                        3,
                        poison_first_step(on_helper),
                        vec![job],
                    );
                    assert_eq!(status(&answer(&handed)), 500, "{case}");
                    let kinds: Vec<&str> = core.flight.snapshot().iter().map(|e| e.kind).collect();
                    assert_eq!(
                        kinds.iter().filter(|&&k| k == "panic").count(),
                        1,
                        "{case}: {kinds:?}"
                    );
                    let dump = core.flight.dump("sampler_panic");
                    assert!(
                        dump.starts_with("{\"event\":\"flight_dump\",\"reason\":\"sampler_panic\""),
                        "{case}: {dump}"
                    );
                    assert!(dump.contains("\"kind\":\"panic\""), "{case}: {dump}");
                    core.stop();
                }
            }
        }

        /// A checkpoint image that no longer decodes: the panic's respawn
        /// fails to reload, every retry fails too and costs a restart, and
        /// the core gives up once the budget is spent.
        #[test]
        fn reload_failures_spend_the_budget_and_fail_the_service() {
            let mut image = boot_model().to_bytes();
            image[0] ^= 0xFF;
            for split in splits() {
                let (job, handed) = probe_job();
                let core =
                    Core::start(split, image.clone(), 2, poison_first_step(false), vec![job]);
                assert_eq!(status(&answer(&handed)), 500);
                let Core {
                    metrics,
                    flight,
                    supervisor,
                    shutdown,
                    thread,
                    ..
                } = core;
                thread.join().expect("the core gives up and returns");
                // The panic, then two failed reloads: the third restart
                // exceeds the budget of 2.
                assert_eq!(metrics.supervisor_restarts.get(), 3);
                let kinds: Vec<&str> = flight.snapshot().iter().map(|e| e.kind).collect();
                assert_eq!(
                    kinds.iter().filter(|&&k| k == "reload_failure").count(),
                    2,
                    "{kinds:?}"
                );
                assert!(kinds.contains(&"budget_exhausted"), "{kinds:?}");
                assert_eq!(supervisor.health(Instant::now()), ServiceHealth::Failed);
                assert!(shutdown.load(Ordering::SeqCst));
            }
        }

        /// A step that always panics spends the restart budget: each
        /// generation fails the jobs it activated with a 500, the job still
        /// queued when the budget runs out gets a 503, every job is answered
        /// exactly once, and the core sets the server's shutdown flag.
        #[test]
        fn budget_exhaustion_answers_every_job_and_shuts_down() {
            let image = boot_model().to_bytes();
            for split in splits() {
                // Four lanes activate four jobs a generation: two
                // generations fail eight, and the ninth is still queued.
                let (jobs, handed): (Vec<Job>, Vec<Handed>) = (0..9)
                    .map(|seed| job(seed, 1, 24, Instant::now(), None))
                    .unzip();
                let core = Core::start(split, image.clone(), 1, poison_every_step(), jobs);
                let statuses: Vec<u16> = handed.iter().map(|h| status(&answer(h))).collect();
                assert_eq!(statuses, [500, 500, 500, 500, 500, 500, 500, 500, 503]);
                let Core {
                    metrics,
                    supervisor,
                    shutdown,
                    thread,
                    ..
                } = core;
                thread.join().expect("the core gives up and returns");
                assert_eq!(metrics.supervisor_restarts.get(), 2);
                assert_eq!(metrics.requests_failed.get(), 9);
                assert_eq!(supervisor.health(Instant::now()), ServiceHealth::Failed);
                assert!(shutdown.load(Ordering::SeqCst));
                for h in &handed {
                    assert!(h.reply.try_recv().is_err(), "one terminal event per job");
                    assert_eq!(h.slot.load(Ordering::SeqCst), 0, "the slot is back");
                }
            }
        }
    }
}
