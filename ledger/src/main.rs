//! `ledger`: the repository's one benchmark. See `README.md` beside
//! `Cargo.toml` for the workloads, the metrics and how they interact.

mod catalog;
mod compare;
mod fixtures;
mod http;
mod json;
mod layers;
mod run;
mod stats;
mod trace;
mod workloads;

use std::io::Write;
use std::process::{Command, ExitCode};
use workloads::Workload;

const USAGE: &str = "usage:
  ledger --workload <name> --seed <n> --seconds <n> --trace <0|1> [--out FILE] [--spans FILE]
      one run; the last line of standard output is the result. --out appends the
      result with the host it was measured on; --spans writes a traced run's spans.
  ledger all [--seed <n>] [--seconds <n>] [--out FILE]
      every workload, untraced then traced, each in a process of its own
  ledger compare BASE CHANGE [MORE...]
      files written by --out, row by row against the bounds; exit code 1 on any `worse`
  ledger regen-fixture [--write]
      re-run the recipe of fixtures/lstm-2x64.ckpt and compare the bytes
  ledger benchmark-json
      print BENCHMARK.json as src/catalog.rs declares it
workloads: synth-offline sample-wide serve-narrow serve-wide pipeline drive-suites train";

/// The value following `--name`.
fn option<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1).map(String::as_str)
}

fn number(args: &[String], name: &str, default: Option<u64>) -> Result<u64, String> {
    match option(args, name) {
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name} takes a whole number, not {text:?}")),
        None => default.ok_or(format!("{name} is required")),
    }
}

fn single(args: &[String]) -> Result<ExitCode, String> {
    let name = option(args, "--workload").ok_or("--workload is required")?;
    let workload = Workload::from_name(name).ok_or(format!("no workload named {name:?}"))?;
    let seed = number(args, "--seed", None)?;
    let seconds = number(args, "--seconds", None)?;
    let trace = match number(args, "--trace", None)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let record = run::run(workload, seed, seconds, trace, option(args, "--spans"));
    record.print();
    if let Some(path) = option(args, "--out") {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{}", record.out_line()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", record.result_line());
    Ok(ExitCode::SUCCESS)
}

/// Every workload, untraced then traced, as the driver runs them: one process
/// each, so peak memory and set-up are each run's own.
fn all(args: &[String]) -> Result<ExitCode, String> {
    let seed = number(args, "--seed", Some(1))?.to_string();
    let seconds = number(args, "--seconds", Some(10))?.to_string();
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut correct = true;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let mut command = Command::new(&exe);
            command.args(["--workload", workload.name(), "--seed", &seed]);
            command.args(["--seconds", &seconds, "--trace", trace]);
            if let Some(out) = option(args, "--out") {
                command.args(["--out", out]);
            }
            let output = command.output().map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            std::io::stderr().write_all(&output.stderr).ok();
            let result = stdout.lines().last().and_then(|l| json::parse(l).ok());
            correct &= output.status.success()
                && result.and_then(|r| r.get("correct").cloned()) == Some(json::Json::Bool(true));
        }
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn regen_fixture(args: &[String]) -> Result<ExitCode, String> {
    let started = std::time::Instant::now();
    let bytes = fixtures::train_lstm64(&mut |report| {
        eprintln!(
            "epoch {:>2}  loss {:.4}  {:.0} chars/s",
            report.epoch, report.loss_per_char, report.chars_per_sec
        );
    });
    println!(
        "recipe: {} bytes, FNV-1a-64 {:#018x}, {:.1} s",
        bytes.len(),
        stats::fnv1a64(&bytes),
        started.elapsed().as_secs_f64()
    );
    println!(
        "committed: {} bytes, FNV-1a-64 {:#018x}",
        fixtures::LSTM64_BYTES.len(),
        fixtures::LSTM64_DIGEST
    );
    if bytes == fixtures::LSTM64_BYTES {
        println!("this tree reproduces the committed fixture");
    } else {
        println!(
            "this tree does NOT reproduce the committed fixture; the committed bytes stay \
             the workload (training numerics changed since they were made)"
        );
    }
    if args.iter().any(|a| a == "--write") {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/lstm-2x64.ckpt");
        std::fs::write(path, &bytes).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "wrote {path}; record the new digest in src/fixtures.rs and fixtures/README.md, \
             and expect every sampling baseline to move"
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => all(&args),
        Some("compare") => compare::run(&args[1..]).map(|any_worse| {
            if any_worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }),
        Some("regen-fixture") => regen_fixture(&args),
        Some("benchmark-json") => {
            print!("{}", catalog::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        Some(_) => single(&args),
        None => Err("no arguments".to_string()),
    };
    outcome.unwrap_or_else(|why| {
        eprintln!("ledger: {why}\n{USAGE}");
        ExitCode::from(2)
    })
}
