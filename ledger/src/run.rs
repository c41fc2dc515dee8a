//! One benchmark run: set-up, warm-up, identical passes for `--seconds`,
//! checks, and the record of everything measured.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::fixtures::Fixtures;
use crate::json::quote;
use crate::layers;
use crate::stats::{median, peak_rss_mb, percentile, tail_percentile};
use crate::trace::{self, Tracer};
use crate::workloads::{self, run_pass, Pass, Workload};
use std::collections::BTreeMap;
use std::process::Command;
use std::time::{Duration, Instant};

/// Share of a traced run's `--seconds` spent on the layer probes.
const PROBE_SHARE: f64 = 0.25;

/// One printed metric with the number of samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Everything one run measured.
pub struct Record {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Digest of a full pass's outputs (of the quarter pass when traced).
    pub digest: u64,
    /// Digest of the outputs of every fourth item: the part of the work list
    /// the untraced and the traced run share, so equal in both.
    pub prefix_digest: u64,
    pub passes: usize,
    pub wall_s: f64,
    pub metrics: Vec<Metric>,
}

/// Per-layer observations by metric name.
type Observations = BTreeMap<&'static str, Vec<f64>>;

fn observe(layer: &mut Observations, observations: Vec<(&'static str, f64)>) {
    for (name, value) in observations {
        layer.entry(name).or_default().push(value);
    }
}

fn run_command(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// Where and on what the numbers were measured, as a JSON object.
fn host_json() -> String {
    let unknown = || "unknown".to_string();
    let dirty = run_command("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    format!(
        "{{\"cores\":{},\"rayon_threads\":{},\"rustc\":{},\"git_rev\":{},\"git_dirty\":{}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rayon::current_num_threads(),
        quote(&run_command("rustc", &["-V"]).unwrap_or_else(unknown)),
        quote(&run_command("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        dirty.map_or("null".to_string(), |d| d.to_string()),
    )
}

impl Record {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn metrics_json(&self) -> String {
        let members: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{} is not a finite number", m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", members.join(", "))
    }

    /// The line the driver reads: the last line of standard output.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The line `--out` appends and `compare` reads: the result plus what it
    /// was measured on.
    pub fn out_line(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"passes\": {}, \"wall_s\": {}, \
             \"output_digest\": \"{:016x}\", \"prefix_digest\": \"{:016x}\", \"host\": {}, \
             \"metrics\": {}}}",
            self.workload.name(),
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.correct(),
            self.attempted,
            self.failed,
            self.passes,
            self.wall_s,
            self.digest,
            self.prefix_digest,
            host_json(),
            self.metrics_json()
        )
    }

    /// Every metric by name with its unit, sample count and bound.
    pub fn print(&self) {
        println!(
            "# {} seed={} seconds={} trace={} passes={} attempted={} failed={} wall={:.1}s \
             output_digest={:016x} prefix_digest={:016x}",
            self.workload.name(),
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.passes,
            self.attempted,
            self.failed,
            self.wall_s,
            self.digest,
            self.prefix_digest
        );
        for m in &self.metrics {
            let bound = END_TO_END
                .iter()
                .find(|e| e.name == m.name)
                .map_or(String::new(), |e| format!("  bound={}", e.bound));
            println!(
                "{:<36} {:>16.4} {:<9} n={}{bound}",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(passes: &[Pass], setups: &[f64]) -> Vec<Metric> {
    let rate = |f: fn(&Pass) -> f64| {
        let rates: Vec<f64> = passes.iter().map(|p| f(p) / p.busy_s).collect();
        (median(&rates), rates.len())
    };
    let ops: Vec<_> = passes.iter().flat_map(|p| &p.ops).collect();
    let ms: Vec<f64> = ops.iter().map(|op| op.ms).collect();
    let first_ms: Vec<f64> = ops.iter().map(|op| op.first_result_ms).collect();
    END_TO_END
        .iter()
        .map(|m| {
            let (value, samples) = match m.name {
                "work_per_s" => rate(|p| p.work),
                "results_per_s" => rate(|p| p.results),
                "op_ms_p50" => (percentile(&ms, 0.5), ms.len()),
                "op_ms_tail" => (percentile(&ms, tail_percentile(ms.len())), ms.len()),
                "first_result_ms_p50" => (percentile(&first_ms, 0.5), first_ms.len()),
                "peak_rss_mb" => (peak_rss_mb(), 1),
                "setup_s" => (median(setups), setups.len()),
                other => unreachable!("{other} is declared but not measured"),
            };
            Metric {
                name: m.name,
                unit: m.unit,
                value,
                samples,
            }
        })
        .collect()
}

/// Measure `workload` for `seconds`. With `trace` the passes are quarter
/// passes with spans recorded, alternating with untraced ones, after the
/// layer probes; `spans_path` receives the spans as NDJSON.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_path: Option<&str>,
) -> Record {
    let run_started = Instant::now();
    // Set-ups are spread over the run — three before the first pass, three
    // after every pass — so that a slow second on the host cannot colour most
    // of them.
    let mut setups = Vec::new();
    let mut setup_thrice = || {
        let mut fixtures = None;
        for _ in 0..3 {
            // The previous server goes down before the next boots, off the clock.
            drop(fixtures.take());
            let started = Instant::now();
            fixtures = Some(Fixtures::setup());
            setups.push(started.elapsed().as_secs_f64());
        }
        fixtures.expect("set up three times")
    };
    let fx = setup_thrice();
    let off = Tracer::new(false);
    let on = Tracer::new(trace);
    let mut layer = Observations::new();

    let mut measure = Duration::from_secs(seconds);
    if trace {
        let probing = measure.mul_f64(PROBE_SHARE);
        observe(&mut layer, layers::probes(&fx, probing));
        measure -= probing;
    }

    // Warm-up: a quarter pass, with the checks against independent references.
    let is_prefix = |item: usize| workload.in_quarter(item);
    let quarter = workload.pass_order(seed, 0, true);
    let warm = run_pass(workload, &fx, &quarter, seed, true, &off);
    let prefix_digest = warm.digest(is_prefix);
    let mut failed = warm.failed;

    let mut passes: Vec<Pass> = Vec::new();
    let mut twins: Vec<Pass> = Vec::new();
    let mut attempted = 0;
    let deadline = Instant::now() + measure;
    while passes.is_empty() || Instant::now() < deadline {
        let order = workload.pass_order(seed, passes.len() as u64 + 1, trace);
        attempted += order.len() as u64;
        // A traced pass has an untraced twin over the same items; which of
        // the two runs first alternates.
        let twin_first = trace && passes.len() % 2 == 1;
        if twin_first {
            twins.push(run_pass(workload, &fx, &order, seed, false, &off));
        }
        let pass = run_pass(workload, &fx, &order, seed, false, &on);
        failed += pass.failed;
        // Every pass does the same work, so it must produce the same bytes.
        let first = passes.first().unwrap_or(&pass);
        if pass.digest(is_prefix) != prefix_digest
            || pass.digest(|_| true) != first.digest(|_| true)
        {
            eprintln!(
                "ledger: pass {} produced different output bytes",
                passes.len() + 1
            );
            failed += 1;
        }
        passes.push(pass);
        if trace && !twin_first {
            twins.push(run_pass(workload, &fx, &order, seed, false, &off));
        }
        if !trace {
            setup_thrice();
        }
    }
    failed += twins.iter().map(|twin| twin.failed).sum::<u64>();

    let metrics = if trace {
        for pass in &mut passes {
            observe(&mut layer, vec![("trace.work_per_s", pass.work_rate())]);
            observe(&mut layer, std::mem::take(&mut pass.layer));
        }
        match workload {
            Workload::SynthOffline => match layers::replay_session(&fx, 0, &on) {
                Ok(observations) => observe(&mut layer, observations),
                Err(why) => {
                    eprintln!("ledger: {why}");
                    failed += 1;
                }
            },
            Workload::Pipeline => {
                let share = workloads::synth_share(&fx, &quarter, &on);
                observe(&mut layer, vec![("pipeline.synth_share", share)]);
            }
            Workload::DriveSuites => match workloads::pool_speedup(&fx, seed) {
                Some(speedup) => observe(&mut layer, vec![("harness.pool_speedup", speedup)]),
                None => {
                    eprintln!("ledger: pool and serial driving produced different NDJSON");
                    failed += 1;
                }
            },
            _ => {}
        }
        let spans = on.spans();
        let untraced: Vec<f64> = twins.iter().map(Pass::work_rate).collect();
        let overhead_pct = 100.0 * (1.0 - median(&layer["trace.work_per_s"]) / median(&untraced));
        observe(
            &mut layer,
            vec![
                ("trace.overhead_pct", overhead_pct),
                ("trace.self_coverage", trace::coverage(&spans)),
                ("trace.spans", spans.len() as f64),
            ],
        );
        if let Some(path) = spans_path {
            on.write_ndjson(path).expect("the span file is writable");
        }
        // Counts repeat exactly from pass to pass, so the median is the count.
        PER_LAYER
            .iter()
            .map(|m| {
                let samples = layer.get(m.name).map_or(&[][..], Vec::as_slice);
                Metric {
                    name: m.name,
                    unit: m.unit,
                    value: median(samples),
                    samples: samples.len(),
                }
            })
            .collect()
    } else {
        end_to_end(&passes, &setups)
    };

    Record {
        workload,
        seed,
        seconds,
        trace,
        attempted,
        failed,
        digest: passes[0].digest(|_| true),
        prefix_digest,
        passes: passes.len(),
        wall_s: run_started.elapsed().as_secs_f64(),
        metrics,
    }
}
