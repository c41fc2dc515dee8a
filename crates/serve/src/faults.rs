//! Deterministic fault injection for the serving stack.
//!
//! A [`FaultPlan`] names a set of **fault points** compiled into the server
//! and arms each one to fire at a chosen hit count. Every point keeps a
//! process-wide monotonic hit counter, so for a fixed plan and a fixed
//! request sequence the faults fire at exactly the same places on every run —
//! which is what lets the chaos suite (`tests/chaos.rs`) assert that
//! *unaffected* concurrent requests still produce byte-identical responses
//! while faults fire around them.
//!
//! The hooks are in every build. The default plan is inert
//! ([`FaultPlan::inert`]): a hook on it is one `Option` check, against a
//! scheduler round of tens of microseconds.
//!
//! # Plan grammar
//!
//! A plan is a comma-separated list of entries, e.g.
//! `sampler_panic@40,slow_write@1+:25,seed=7`:
//!
//! | entry | meaning |
//! |---|---|
//! | `NAME@N` | fire exactly on the Nth hit of the point (1-based) |
//! | `NAME@N+` | fire on every hit from the Nth on |
//! | `NAME@N:ARG` | as above, with an integer argument (milliseconds for the stall/delay points) |
//! | `seed=S` | seed for fault randomness (e.g. which checkpoint byte to corrupt) |
//!
//! Plans come from the `--faults` CLI flag.
//!
//! # Fault points
//!
//! | name | where it fires | effect |
//! |---|---|---|
//! | `sampler_panic` | sampler core, once per step of any of its engines, before it | `panic!` on that engine's thread, inside the supervised core (exercises panic isolation + respawn) |
//! | `sampler_stall` | sampler core, once per step of any of its engines, after it | holds every engine's lanes still for `ARG` ms; turns taken meanwhile still admit, shed and reap (drives queue saturation / backpressure) |
//! | `slow_write` | connection handler, before each response chunk | sleeps `ARG` ms (a slow client link) |
//! | `drop_response` | connection handler, after a chunk is written | hard-closes the socket mid-body |
//! | `corrupt_reload` | supervisor, on checkpoint reload after a panic | flips one seed-chosen byte of the checkpoint header, failing the reload |
//! | `filter_panic` | rejection-filter worker, once per candidate | `panic!` inside the filter (isolated to a typed rejection) |

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A named fault point compiled into the serving stack (see the module docs
/// for where each one fires).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Panic in the sampler core, once per step of any of its engines.
    SamplerPanic,
    /// Hold every engine's lanes still after a step of any engine
    /// (saturates the admission queue).
    SamplerStall,
    /// Sleep before each response chunk write (a slow client link).
    SlowWrite,
    /// Hard-close the client socket right after a chunk write.
    DropResponse,
    /// Corrupt one byte of the checkpoint image on supervisor reload.
    CorruptReload,
    /// Panic inside the rejection filter for one candidate.
    FilterPanic,
}

impl FaultPoint {
    const ALL: [FaultPoint; 6] = [
        FaultPoint::SamplerPanic,
        FaultPoint::SamplerStall,
        FaultPoint::SlowWrite,
        FaultPoint::DropResponse,
        FaultPoint::CorruptReload,
        FaultPoint::FilterPanic,
    ];

    /// The point's name in the plan grammar.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::SamplerPanic => "sampler_panic",
            FaultPoint::SamplerStall => "sampler_stall",
            FaultPoint::SlowWrite => "slow_write",
            FaultPoint::DropResponse => "drop_response",
            FaultPoint::CorruptReload => "corrupt_reload",
            FaultPoint::FilterPanic => "filter_panic",
        }
    }

    fn index(self) -> usize {
        FaultPoint::ALL
            .iter()
            .position(|&p| p == self)
            .expect("point is in ALL")
    }
}

/// One armed fault point: fire at hit `at` (1-based), optionally on every
/// later hit too, with an integer argument for the points that take one.
#[derive(Debug, Clone, Copy)]
struct Arm {
    at: u64,
    repeat: bool,
    arg: u64,
}

#[derive(Debug, Default)]
struct Inner {
    seed: u64,
    arms: [Option<Arm>; 6],
    hits: [AtomicU64; 6],
}

/// A seeded, deterministic fault-injection plan (inert by default; see the
/// module docs for the grammar and the fault points).
///
/// Cloning a plan shares its hit counters: the server config can be cloned
/// freely and every thread still sees one process-wide counter per point.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Option<Arc<Inner>>,
}

impl FaultPlan {
    /// The inert plan: no fault ever fires.
    pub fn inert() -> FaultPlan {
        FaultPlan::default()
    }

    /// True if any fault point is armed.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// The plan's randomness seed (`seed=S` entry; 0 if unset or inert).
    pub fn seed(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.seed)
    }

    /// Parse a plan from the grammar in the module docs. The empty string is
    /// the inert plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Ok(FaultPlan::inert());
        }
        let mut inner = Inner::default();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            if let Some(seed) = entry.strip_prefix("seed=") {
                inner.seed = seed
                    .parse()
                    .map_err(|_| format!("fault plan: seed is not an integer: {entry:?}"))?;
                continue;
            }
            let (name, trigger) = entry
                .split_once('@')
                .ok_or_else(|| format!("fault plan: entry is not NAME@N[+][:ARG]: {entry:?}"))?;
            let point = FaultPoint::ALL
                .iter()
                .find(|p| p.name() == name)
                .ok_or_else(|| format!("fault plan: unknown fault point {name:?}"))?;
            let (trigger, arg) = match trigger.split_once(':') {
                None => (trigger, 0),
                Some((t, arg)) => (
                    t,
                    arg.parse().map_err(|_| {
                        format!("fault plan: argument is not an integer: {entry:?}")
                    })?,
                ),
            };
            let (at_str, repeat) = match trigger.strip_suffix('+') {
                Some(at) => (at, true),
                None => (trigger, false),
            };
            let at: u64 = at_str
                .parse()
                .map_err(|_| format!("fault plan: hit count is not an integer: {entry:?}"))?;
            if at == 0 {
                return Err(format!("fault plan: hit counts are 1-based: {entry:?}"));
            }
            inner.arms[point.index()] = Some(Arm { at, repeat, arg });
        }
        Ok(FaultPlan {
            inner: Some(Arc::new(inner)),
        })
    }

    /// Record one hit at `point` and return `Some(arg)` if the fault fires on
    /// this hit. The inert plan records nothing and never fires.
    pub fn fire(&self, point: FaultPoint) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let hit = inner.hits[point.index()].fetch_add(1, Ordering::SeqCst) + 1;
        let arm = inner.arms[point.index()]?;
        let fires = if arm.repeat {
            hit >= arm.at
        } else {
            hit == arm.at
        };
        fires.then_some(arm.arg)
    }

    /// Hits recorded at `point` so far (0 on the inert plan).
    pub fn hits(&self, point: FaultPoint) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.hits[point.index()].load(Ordering::SeqCst))
    }

    /// Corrupt `bytes` in place if [`FaultPoint::CorruptReload`] fires on
    /// this hit: one byte of the checkpoint container header, chosen
    /// deterministically from the plan seed and the hit ordinal, is
    /// bit-flipped. Targeting the header (magic + version — the checkpoint
    /// format carries no payload checksum) guarantees the decode fails
    /// loudly, which is the supervisor path this fault exists to exercise.
    /// Returns the flipped index.
    pub fn corrupt_reload(&self, bytes: &mut [u8]) -> Option<usize> {
        self.fire(FaultPoint::CorruptReload).map(|_| {
            if bytes.is_empty() {
                return 0;
            }
            let ordinal = self.hits(FaultPoint::CorruptReload);
            let mut state = self.seed() ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            // One SplitMix64 round: spread the seed over the byte range.
            state = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let header = bytes.len().min(12) as u64;
            let index = (state % header) as usize;
            bytes[index] ^= 0xFF;
            index
        })
    }

    /// Sleep for the fault's argument (milliseconds) if `point` fires on this
    /// hit. The shape of the `slow_write` point.
    pub fn stall(&self, point: FaultPoint) {
        if let Some(ms) = self.fire(point) {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_fire_semantics() {
        let plan = FaultPlan::parse("sampler_panic@3,slow_write@2+:25,seed=9").unwrap();
        assert!(plan.is_active());
        assert_eq!(plan.seed(), 9);

        // One-shot: fires exactly on the 3rd hit.
        assert_eq!(plan.fire(FaultPoint::SamplerPanic), None);
        assert_eq!(plan.fire(FaultPoint::SamplerPanic), None);
        assert_eq!(plan.fire(FaultPoint::SamplerPanic), Some(0));
        assert_eq!(plan.fire(FaultPoint::SamplerPanic), None);

        // Repeating: fires on every hit from the 2nd, carrying its argument.
        assert_eq!(plan.fire(FaultPoint::SlowWrite), None);
        assert_eq!(plan.fire(FaultPoint::SlowWrite), Some(25));
        assert_eq!(plan.fire(FaultPoint::SlowWrite), Some(25));

        // Unarmed points never fire but still count hits.
        assert_eq!(plan.fire(FaultPoint::FilterPanic), None);
        assert_eq!(plan.hits(FaultPoint::FilterPanic), 1);
    }

    #[test]
    fn clones_share_hit_counters() {
        let plan = FaultPlan::parse("drop_response@2").unwrap();
        let clone = plan.clone();
        assert_eq!(plan.fire(FaultPoint::DropResponse), None);
        assert_eq!(clone.fire(FaultPoint::DropResponse), Some(0));
    }

    #[test]
    fn corruption_is_deterministic_and_seeded() {
        let corrupt_once = |seed: u64| {
            let plan = FaultPlan::parse(&format!("corrupt_reload@1,seed={seed}")).unwrap();
            let mut bytes = vec![0u8; 64];
            let index = plan.corrupt_reload(&mut bytes).expect("fires on first hit");
            assert_eq!(bytes[index], 0xFF);
            assert_eq!(bytes.iter().filter(|&&b| b != 0).count(), 1);
            // Second reload is untouched: the arm is one-shot.
            let mut clean = vec![0u8; 64];
            assert_eq!(plan.corrupt_reload(&mut clean), None);
            assert!(clean.iter().all(|&b| b == 0));
            index
        };
        assert_eq!(corrupt_once(7), corrupt_once(7), "same seed, same byte");
    }

    #[test]
    fn rejected_specs() {
        assert!(FaultPlan::parse("nope@1").is_err());
        assert!(FaultPlan::parse("sampler_panic=3").is_err());
        assert!(FaultPlan::parse("sampler_panic@0").is_err());
        assert!(FaultPlan::parse("sampler_panic@x").is_err());
        assert!(FaultPlan::parse("slow_write@1:ms").is_err());
        assert!(FaultPlan::parse("seed=abc").is_err());
        assert!(!FaultPlan::parse("").unwrap().is_active());
    }
}
