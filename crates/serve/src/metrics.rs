//! The serving stack's metric catalog: every counter, gauge and histogram
//! the server records, pre-registered once into a [`Registry`] so hot paths
//! only touch atomics.
//!
//! `/stats` renders from these same handles (`server::render_stats`, and
//! `harness_api::render_harness_stats` for the `clgen_harness_*` families
//! the harness records by name), so the JSON object and the Prometheus
//! exposition can never disagree — they are two views of one set of atomics.
//! The full catalog is documented in the README's "Observability" section.
//!
//! The request families are written from one place each: the POST
//! lifecycle's queue gate bumps `clgen_requests_received_total` or
//! `clgen_requests_rejected_total` (so the two partition the requests that
//! passed parameter validation, on every endpoint), and its per-request
//! guard takes the one `clgen_request_latency_us` sample of every POST
//! request, `400`s included.

use clgen_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// Pre-registered handles for the serving metric catalog.
#[derive(Debug)]
pub(crate) struct ServeMetrics {
    /// The registry everything is registered in (also receives the
    /// harness-side and training-side metrics; rendered by `GET /metrics`).
    pub registry: Arc<Registry>,
    /// `clgen_requests_received_total`: admissions at the queue gate, on
    /// every POST endpoint (with `requests_rejected`, the requests that
    /// passed parameter validation).
    pub requests_received: Counter,
    /// `clgen_requests_completed_total`.
    pub requests_completed: Counter,
    /// `clgen_requests_rejected_total` (queue-full 503s, every POST
    /// endpoint).
    pub requests_rejected: Counter,
    /// `clgen_requests_shed_total` (expired while queued).
    pub requests_shed: Counter,
    /// `clgen_requests_timed_out_total` (partial response, `timeout` marker).
    pub requests_timed_out: Counter,
    /// `clgen_requests_failed_total` (panic quarantine, drain cutoff).
    pub requests_failed: Counter,
    /// `clgen_sampling_kernels_total` (accepted kernels).
    pub kernels: Counter,
    /// `clgen_sampling_attempts_total` (candidates absorbed).
    pub attempts: Counter,
    /// `clgen_generated_chars_total`.
    pub generated_chars: Counter,
    /// `clgen_filter_accepted_total`.
    pub filter_accepted: Counter,
    /// `clgen_queue_depth` gauge (refreshed on scrape).
    pub queue_depth: Gauge,
    /// `clgen_lanes_busy` gauge.
    pub lanes_busy: Gauge,
    /// `clgen_active_requests` gauge.
    pub active_requests: Gauge,
    /// `clgen_lane_occupancy` histogram: occupied lanes per sampling round.
    pub lane_occupancy: Histogram,
    /// `clgen_queue_wait_us{outcome="admitted"}`.
    pub queue_wait_admitted: Histogram,
    /// `clgen_queue_wait_us{outcome="shed"}` — recorded on both the
    /// traffic-driven and the idle `recv_timeout` sweep paths.
    pub queue_wait_shed: Histogram,
    /// `clgen_supervisor_restarts_total`.
    pub supervisor_restarts: Counter,
}

const LATENCY: &str = "clgen_request_latency_us";
const REJECTED_BY_REASON: &str = "clgen_filter_rejects_total";
const CANDIDATES: &str = "clgen_candidates_total";

/// The label values of the `clgen_candidates_total{outcome}` family, in
/// exposition order. Outcomes are mutually exclusive and sum to the absorbed
/// attempts: `accepted` (natively valid), `repaired` (accepted only after
/// deterministic repair), `aborted_midstream` (reaped by the incremental
/// validator mid-kernel), `rejected` (every other filter rejection).
pub(crate) const CANDIDATE_OUTCOMES: [&str; 4] =
    ["accepted", "repaired", "aborted_midstream", "rejected"];

impl ServeMetrics {
    /// Register the full serving catalog in `registry` and return the
    /// handles. Harness families are pre-registered too (at zero), so
    /// `/stats` and `/metrics` expose them before the first drive.
    pub fn new(registry: Arc<Registry>) -> ServeMetrics {
        let c = |name: &str, help: &str| registry.counter(name, &[], help);
        let g = |name: &str, help: &str| registry.gauge(name, &[], help);
        for outcome in clgen_harness::UNIT_OUTCOMES {
            registry.counter(
                "clgen_harness_units_total",
                &[("outcome", outcome)],
                "Harness work units by outcome",
            );
        }
        registry.counter(
            "clgen_harness_kernels_driven_total",
            &[],
            "Kernels driven through the harness",
        );
        registry.counter(
            "clgen_harness_predictions_total",
            &[],
            "CPU/GPU mapping predictions produced",
        );
        registry.histogram(
            "clgen_harness_unit_run_us",
            &[],
            "Per-unit drive wall-clock in microseconds",
        );
        registry.histogram(
            "clgen_harness_unit_steps",
            &[],
            "Per-unit interpreter steps, dynamic check included",
        );
        // Candidate outcomes are pre-registered at zero so the family is
        // complete in `/metrics` before the first candidate is absorbed.
        for outcome in CANDIDATE_OUTCOMES {
            registry.counter(
                CANDIDATES,
                &[("outcome", outcome)],
                "Absorbed candidates by outcome",
            );
        }
        ServeMetrics {
            requests_received: c(
                "clgen_requests_received_total",
                "Requests accepted onto the admission queue",
            ),
            requests_completed: c(
                "clgen_requests_completed_total",
                "Requests fully answered with a done line",
            ),
            requests_rejected: c(
                "clgen_requests_rejected_total",
                "Requests rejected 503 at the queue-full gate",
            ),
            requests_shed: c(
                "clgen_requests_shed_total",
                "Queued requests shed because their deadline expired",
            ),
            requests_timed_out: c(
                "clgen_requests_timed_out_total",
                "Requests that hit their deadline mid-flight (partial response)",
            ),
            requests_failed: c(
                "clgen_requests_failed_total",
                "Requests aborted by a sampler-core panic or drain cutoff",
            ),
            kernels: c(
                "clgen_sampling_kernels_total",
                "Accepted kernels absorbed into responses",
            ),
            attempts: c(
                "clgen_sampling_attempts_total",
                "Sampled candidates absorbed into responses",
            ),
            generated_chars: c(
                "clgen_generated_chars_total",
                "Characters generated across absorbed candidates",
            ),
            filter_accepted: c(
                "clgen_filter_accepted_total",
                "Candidates accepted by the rejection filter",
            ),
            queue_depth: g(
                "clgen_queue_depth",
                "Requests queued ahead of the sampler core",
            ),
            lanes_busy: g(
                "clgen_lanes_busy",
                "Lanes running a candidate after the last round",
            ),
            active_requests: g(
                "clgen_active_requests",
                "Requests active in the sampler core",
            ),
            lane_occupancy: registry.histogram(
                "clgen_lane_occupancy",
                &[],
                "Occupied batch lanes per sampling round",
            ),
            queue_wait_admitted: registry.histogram(
                "clgen_queue_wait_us",
                &[("outcome", "admitted")],
                "Microseconds spent queued, by admission outcome",
            ),
            queue_wait_shed: registry.histogram(
                "clgen_queue_wait_us",
                &[("outcome", "shed")],
                "Microseconds spent queued, by admission outcome",
            ),
            supervisor_restarts: c(
                "clgen_supervisor_restarts_total",
                "Sampler-core restarts recorded by the supervisor",
            ),
            registry,
        }
    }

    /// Record one request's latency in the histogram of its endpoint/outcome
    /// pair (get-or-create). The POST lifecycle's per-request guard calls it
    /// exactly once per request, whatever the outcome, so the registry
    /// lookup is off the hot path.
    pub fn observe_latency(&self, endpoint: &'static str, outcome: &'static str, us: u64) {
        self.registry
            .histogram(
                LATENCY,
                &[("endpoint", endpoint), ("outcome", outcome)],
                "Request latency in microseconds, by endpoint and outcome",
            )
            .observe(us);
    }

    /// The rejection counter for one filter-rejection reason.
    pub fn filter_rejected(&self, reason: &str) -> Counter {
        self.registry.counter(
            REJECTED_BY_REASON,
            &[("reason", reason)],
            "Candidates rejected by the filter, by reason",
        )
    }

    /// Snapshot the per-reason rejection counts (sorted by reason).
    pub fn rejection_counts(&self) -> Vec<(String, u64)> {
        self.registry
            .counter_values(REJECTED_BY_REASON)
            .into_iter()
            .filter_map(|(labels, value)| {
                labels
                    .into_iter()
                    .find(|(k, _)| k == "reason")
                    .map(|(_, reason)| (reason, value))
            })
            .collect()
    }

    /// The candidate counter for one outcome
    /// (see [`CANDIDATE_OUTCOMES`]).
    pub fn candidate_outcome(&self, outcome: &'static str) -> Counter {
        self.registry.counter(
            CANDIDATES,
            &[("outcome", outcome)],
            "Absorbed candidates by outcome",
        )
    }

    /// Snapshot the candidate-outcome counts in [`CANDIDATE_OUTCOMES`] order.
    pub fn candidate_counts(&self) -> [(&'static str, u64); 4] {
        CANDIDATE_OUTCOMES.map(|outcome| (outcome, self.candidate_outcome(outcome).get()))
    }
}
