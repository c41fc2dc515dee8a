//! `ledger compare BASE CHANGE [MORE…]`: two sets of runs, row by row.
//!
//! Each file holds the lines `--out` appended, any number of runs per
//! workload. Every (end-to-end metric, workload) pair present in both files
//! gets a verdict against the bound the benchmark fixed for the metric;
//! per-layer metrics have no bound and are listed with their change only.

use crate::catalog::{Better, END_TO_END, PER_LAYER};
use crate::json;
use crate::stats::{median, quartile_spread};
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs' own spread is wider than the bound and the two sets
    /// interleave: the data cannot show whether the bound holds.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative change of the median, positive when `change` is worse.
fn worse_by(base: &[f64], change: &[f64], better: Better) -> f64 {
    let (b, c) = (median(base), median(change));
    match better {
        Better::Lower => (c - b) / b.abs(),
        Better::Higher => (b - c) / b.abs(),
    }
}

pub fn verdict(base: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let worse_by = worse_by(base, change, better);
    // A single run has no spread of its own: only the bound can resolve it.
    let spread = |runs| quartile_spread(runs).unwrap_or(bound);
    let spread = spread(base).max(spread(change));
    let all = |f: fn(f64, f64) -> bool| change.iter().all(|&c| base.iter().all(|&b| f(c, b)));
    let separated = all(|c, b| c > b) || all(|c, b| c < b);
    if spread > bound && !separated {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < 0.0 && -worse_by > spread {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One run as `compare` needs it.
struct Run {
    workload: String,
    seed: f64,
    trace: bool,
    prefix_digest: String,
    metrics: Vec<(String, f64)>,
}

fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            let doc = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
            let field = |key: &str| doc.get(key).ok_or(format!("{path}: a run without {key}"));
            Ok(Run {
                workload: field("workload")?.as_str().unwrap_or_default().to_string(),
                seed: field("seed")?.as_f64().unwrap_or(0.0),
                trace: field("trace")?.as_f64() == Some(1.0),
                prefix_digest: field("prefix_digest")?
                    .as_str()
                    .unwrap_or_default()
                    .to_string(),
                metrics: field("metrics")?
                    .members()
                    .iter()
                    .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                    .collect(),
            })
        })
        .collect()
}

fn values(runs: &[Run], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .flat_map(|r| {
            r.metrics
                .iter()
                .filter(|(n, _)| n == metric)
                .map(|(_, v)| *v)
        })
        .collect()
}

/// Print the rows of `base` against `change`; true when any row is `worse`.
fn compare(base: &[Run], change: &[Run]) -> bool {
    let mut any_worse = false;
    println!(
        "{:<14} {:<36} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "change", "change%", "bound"
    );
    let row = |workload: &str, name: &str, a: &[f64], b: &[f64], bound: &str, verdict: &str| {
        println!(
            "{workload:<14} {name:<36} {:>14.4} {:>14.4} {:>+8.2} {bound:>6}  {verdict} (n={}/{})",
            median(a),
            median(b),
            100.0 * (median(b) - median(a)) / median(a).abs(),
            a.len(),
            b.len()
        );
    };
    for workload in Workload::ALL.map(Workload::name) {
        for m in END_TO_END {
            let a = values(base, workload, false, m.name);
            let b = values(change, workload, false, m.name);
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let verdict = verdict(&a, &b, m.better, m.bound);
            any_worse |= verdict == Verdict::Worse;
            row(
                workload,
                m.name,
                &a,
                &b,
                &m.bound.to_string(),
                verdict.as_str(),
            );
        }
        for m in PER_LAYER {
            let a = values(base, workload, true, m.name);
            let b = values(change, workload, true, m.name);
            // A layer the workload bypasses reads 0 on both sides.
            if a.is_empty() || b.is_empty() || (median(&a) == 0.0 && median(&b) == 0.0) {
                continue;
            }
            row(workload, m.name, &a, &b, "-", "-");
        }
    }
    // Same workload and seed, different bytes: allowed, but never silent.
    for a in base {
        let moved = change.iter().any(|b| {
            (b.workload.as_str(), b.seed) == (a.workload.as_str(), a.seed)
                && b.prefix_digest != a.prefix_digest
        });
        if moved {
            println!(
                "{:<14} output bytes changed at seed {} (prefix_digest was {})",
                a.workload, a.seed, a.prefix_digest
            );
        }
    }
    any_worse
}

/// Compare the first file with each of the others; `Ok(true)` when any
/// end-to-end row of any comparison is `worse`.
pub fn run(files: &[String]) -> Result<bool, String> {
    let [base_path, others @ ..] = files else {
        return Err("compare needs a base file and at least one other".to_string());
    };
    if others.is_empty() {
        return Err("compare needs a base file and at least one other".to_string());
    }
    let base = load(base_path)?;
    let mut any_worse = false;
    for path in others {
        println!("## {base_path} -> {path}");
        any_worse |= compare(&base, &load(path)?);
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5];
        // Within the bound either way.
        assert_eq!(
            verdict(&base, &[103.0, 104.0, 102.0], Better::Lower, 0.07),
            Verdict::Same
        );
        assert_eq!(
            verdict(&base, &[100.2, 99.8, 100.4], Better::Higher, 0.07),
            Verdict::Same
        );
        // Beyond the bound, in the direction that is worse for the metric.
        assert_eq!(
            verdict(&base, &[110.0, 111.0, 109.0], Better::Lower, 0.07),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &[110.0, 111.0, 109.0], Better::Higher, 0.07),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &[90.0, 91.0, 89.0], Better::Higher, 0.07),
            Verdict::Worse
        );
        // An improvement smaller than the runs' own spread is no improvement.
        assert_eq!(
            verdict(&base, &[99.6, 100.4, 99.9], Better::Lower, 0.07),
            Verdict::Same
        );
    }

    #[test]
    fn noisy_interleaved_runs_are_unresolved() {
        let base = [100.0, 130.0, 80.0, 115.0];
        let change = [105.0, 125.0, 90.0, 120.0];
        assert_eq!(
            verdict(&base, &change, Better::Lower, 0.07),
            Verdict::Unresolved
        );
        // Noisy, but every run of the change beyond every run of the base.
        let slower = [200.0, 260.0, 170.0];
        assert_eq!(verdict(&base, &slower, Better::Lower, 0.07), Verdict::Worse);
        assert_eq!(
            verdict(&base, &slower, Better::Higher, 0.07),
            Verdict::Better
        );
        // One run a side: an improvement within the bound is not called one.
        assert_eq!(
            verdict(&[100.0], &[97.0], Better::Lower, 0.07),
            Verdict::Same
        );
        assert_eq!(
            verdict(&[100.0], &[90.0], Better::Lower, 0.07),
            Verdict::Better
        );
        // A bound of 0 resolves only exact repeats.
        assert_eq!(
            verdict(&[5.0, 5.0], &[5.0, 5.0], Better::Lower, 0.0),
            Verdict::Same
        );
    }
}
