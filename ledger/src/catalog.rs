//! Every metric the benchmark prints, and `BENCHMARK.json`, which is
//! generated from this file (a unit test holds the two together).

use crate::json::quote;
use crate::workloads::Workload;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: printed by every workload with `--trace 0`. `bound`
/// is the share of the parent's median by which it may get worse.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The bounds are set by the host, not by the benchmark: the reference host
/// drifts by several percent over minutes, and `pipeline`, whose sampler,
/// filter and drive pool contend for two cores, spreads the widest (README,
/// "Bounds"). Each bound is at least twice the widest spread seen on any
/// workload over ten seeds, except `op_ms_tail`'s, which is as wide as a
/// bound may be.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("work_per_s", "1/s", Better::Higher, 0.15),
    e2e("results_per_s", "1/s", Better::Higher, 0.15),
    e2e("op_ms_p50", "ms", Better::Lower, 0.25),
    e2e("op_ms_tail", "ms", Better::Lower, 0.25),
    e2e("first_result_ms_p50", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.1),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// A per-layer metric: printed by every workload with `--trace 1`, 0 where
/// the workload bypasses the layer.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn up(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn down(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // Layer probes: the same on every workload.
    up("host.peak_gflops", "GFLOP/s"),
    up("host.stream_gbps", "GB/s"),
    up("neural.gemm_gflops.h64_w16", "GFLOP/s"),
    up("neural.gemm_gflops.h512_w1", "GFLOP/s"),
    up("neural.gemm_gflops.h512_w16", "GFLOP/s"),
    up("neural.gemm_gbps.h512_w1", "GB/s"),
    up("neural.gemm_roofline_frac.h512_w16", "ratio"),
    down("neural.pack_ms.h512", "ms"),
    down("neural.step_us.h64_full16", "us"),
    down("neural.step_us.h64_occ4of16", "us"),
    down("neural.step_us.h64_full4", "us"),
    down("neural.step_us.h512_full16", "us"),
    down("neural.step_us.h512_occ4of16", "us"),
    down("neural.probs_ns.h64", "ns"),
    down("cl-frontend.validator_ns_per_char", "ns"),
    down("cl-frontend.compile_us_per_kernel", "us"),
    down("cl-frontend.repair_us_per_candidate", "us"),
    up("corpus.build_kernels_per_s", "1/s"),
    down("wire.ckpt_decode_ms", "ms"),
    down("obs.metrics_render_us", "us"),
    // train
    down("neural.train_epoch_s", "s"),
    down("neural.train_loss_first", "nats/char"),
    down("neural.train_loss_last", "nats/char"),
    // synth-offline: the engine replay and the sampler's statistics
    down("core.engine_step_us", "us"),
    down("core.engine_self_us", "us"),
    up("core.model_share", "ratio"),
    up("core.lane_utilisation", "ratio"),
    down("core.seed_prefix_share", "ratio"),
    down("core.steps", "count"),
    down("core.filter_us_accept", "us"),
    down("core.filter_us_reject", "us"),
    down("core.filter_us_aborted", "us"),
    down("core.sampler_self_s", "s"),
    down("core.attempts", "count"),
    up("core.accepted", "count"),
    up("core.repaired", "count"),
    down("core.aborted_midstream", "count"),
    down("core.rejected_compile", "count"),
    up("core.accept_rate", "ratio"),
    down("core.chars_per_kernel", "count"),
    // serve-narrow, serve-wide, pipeline
    down("serve.stage_queued_us", "us"),
    down("serve.stage_sampling_us", "us"),
    down("serve.stage_filter_us", "us"),
    down("serve.stage_respond_us", "us"),
    down("serve.http_overhead_ms", "ms"),
    down("serve.overdispatch_ratio", "ratio"),
    up("serve.lane_occupancy_mean", "count"),
    down("serve.queue_wait_us_mean", "us"),
    // drive-suites, pipeline
    down("harness.drive_us", "us"),
    down("harness.features_us", "us"),
    down("harness.predict_us", "us"),
    up("harness.pool_speedup", "ratio"),
    up("cldrive.units_ok", "count"),
    down("cldrive.unit_errors", "count"),
    down("cldrive.slowest_unit_ms", "ms"),
    down("pipeline.synth_share", "ratio"),
    // the traced run itself
    up("trace.work_per_s", "1/s"),
    down("trace.overhead_pct", "%"),
    up("trace.self_coverage", "ratio"),
    down("trace.spans", "count"),
];

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// The content of `BENCHMARK.json`, generated so that what the driver reads
/// cannot drift from what the binary prints: `ledger benchmark-json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": {}}}",
                w.name(),
                quote(w.why())
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"ledger/Cargo.toml\", \"--\"],\n  \"paths\": [\"ledger\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    /// `BENCHMARK.json` is what the driver reads; this file is what the
    /// binary prints. Regenerate the former with `ledger benchmark-json`.
    #[test]
    fn benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        assert_eq!(std::fs::read_to_string(path).unwrap(), benchmark_json());
    }

    #[test]
    fn the_generated_file_fits_the_contract() {
        let text = benchmark_json();
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let name_ok = |name: &str| {
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |unit: &str| {
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let text_of = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap().to_string();
        let mut seen = std::collections::BTreeSet::new();
        for section in ["workloads", "end_to_end", "per_layer"] {
            for entry in doc.get(section).unwrap().items() {
                let name = text_of(entry, "name");
                assert!(name_ok(&name), "{name}");
                assert!(seen.insert(name.clone()), "{name} is declared twice");
                if section == "workloads" {
                    let why = text_of(entry, "why");
                    assert!(
                        why.len() <= 200 && !why.contains('\n'),
                        "{name}: {}",
                        why.len()
                    );
                } else {
                    assert!(unit_ok(&text_of(entry, "unit")), "{name}");
                }
            }
        }
        assert!((2..=8).contains(&doc.get("workloads").unwrap().items().len()));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
