//! Crash flight recorder: a fixed-size, lock-striped ring of recent
//! structured events.
//!
//! Writers claim a global sequence number with one atomic increment, then
//! take a short per-stripe mutex to publish the event into its slot
//! (`slot = seq % capacity`, `stripe = slot % stripes`), so concurrent
//! writers on different slots never contend on the same lock. On overwrite
//! races the slot keeps the event with the *larger* sequence number, which
//! makes the steady-state contents exact: once `n >= capacity` events have
//! been recorded, a snapshot holds precisely the last `capacity` sequence
//! numbers.
//!
//! The serving supervisor dumps the ring as NDJSON to stderr on sampler-core
//! panic, reload failure or restart-budget exhaustion, and `/debug/flight`
//! (CLI-gated) serves the same dump on demand.

use crate::escape_into;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const STRIPES: usize = 8;

/// One recorded event.
#[derive(Clone, Debug)]
pub struct FlightEvent {
    /// Global sequence number (0-based, dense).
    pub seq: u64,
    /// Microseconds since the recorder was created (monotonic clock).
    pub at_us: u64,
    /// Static event kind (`"admit"`, `"panic"`, `"fault"`, …).
    pub kind: &'static str,
    /// Free-form detail, JSON-escaped at render time.
    pub detail: String,
}

impl FlightEvent {
    /// Render as one NDJSON line (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(64 + self.detail.len());
        out.push_str("{\"event\":\"flight\",\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"at_us\":");
        out.push_str(&self.at_us.to_string());
        out.push_str(",\"kind\":\"");
        out.push_str(self.kind);
        out.push_str("\",\"detail\":");
        escape_into(&mut out, &self.detail);
        out.push('}');
        out
    }
}

/// The ring buffer. All methods take `&self`; clone an `Arc` to share.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    seq: AtomicU64,
    epoch: Instant,
    stripes: Vec<Mutex<Vec<Option<FlightEvent>>>>,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        let stripes = (0..STRIPES)
            .map(|s| {
                // Stripe s owns slots ≡ s (mod STRIPES); size accordingly.
                let slots = (capacity + STRIPES - 1 - s) / STRIPES;
                Mutex::new(vec![None; slots])
            })
            .collect();
        FlightRecorder {
            capacity,
            seq: AtomicU64::new(0),
            epoch: Instant::now(),
            stripes,
        }
    }

    /// Number of events recorded over the recorder's lifetime.
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Record one event.
    pub fn record(&self, kind: &'static str, detail: String) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let event = FlightEvent {
            seq,
            at_us: self.epoch.elapsed().as_micros() as u64,
            kind,
            detail,
        };
        let slot = (seq % self.capacity as u64) as usize;
        let stripe = slot % STRIPES;
        let index = slot / STRIPES;
        let mut slots = self.stripes[stripe].lock().expect("flight stripe poisoned");
        match &slots[index] {
            Some(existing) if existing.seq > seq => {}
            _ => slots[index] = Some(event),
        }
    }

    /// Snapshot the ring contents, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let mut events: Vec<FlightEvent> = Vec::with_capacity(self.capacity);
        for stripe in &self.stripes {
            let slots = stripe.lock().expect("flight stripe poisoned");
            events.extend(slots.iter().flatten().cloned());
        }
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Render the ring as an NDJSON dump: a header line
    /// `{"event":"flight_dump","reason":…,"events":N}` followed by one line
    /// per retained event, oldest first. Ends with a newline.
    pub fn dump(&self, reason: &str) -> String {
        let events = self.snapshot();
        let mut out = String::with_capacity(128 + events.len() * 96);
        out.push_str("{\"event\":\"flight_dump\",\"reason\":");
        escape_into(&mut out, reason);
        out.push_str(",\"events\":");
        out.push_str(&events.len().to_string());
        out.push_str("}\n");
        for event in &events {
            out.push_str(&event.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_last_capacity_events() {
        let ring = FlightRecorder::new(8);
        for i in 0..20 {
            ring.record("t", format!("e{i}"));
        }
        let events = ring.snapshot();
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn dump_renders_header_and_escapes_details() {
        let ring = FlightRecorder::new(4);
        ring.record("panic", "say \"hi\"\nthere".into());
        let dump = ring.dump("sampler_panic");
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"event\":\"flight_dump\",\"reason\":\"sampler_panic\",\"events\":1}"
        );
        assert!(lines[1].contains("\\\"hi\\\"\\nthere"), "{}", lines[1]);
    }
}
