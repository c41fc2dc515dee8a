//! The `clgen-serve` binary: load a `CLGENCKP` checkpoint once, serve it.
//!
//! ```text
//! clgen-serve --checkpoint model.ckpt [--mapping-model model.prd]
//!             [--addr 127.0.0.1:8090] [--lanes 8]
//!             [--queue-cap 64] [--read-timeout-ms N] [--write-timeout-ms N]
//!             [--drain-timeout-ms N] [--deadline-ms N]
//!             [--restart-budget N] [--restart-window-ms N] [--debug-flight]
//! ```
//!
//! `--mapping-model` loads a `CLGENPRD` decision-tree checkpoint so the
//! harness endpoints (`/drive`, `/features`, `/pipeline`) stream CPU/GPU
//! `prediction` events; without it they stream runs and features only.
//!
//! Timeout flags take milliseconds; `0` disables the timeout (unbounded).
//! The flags are the only channel: the binary reads no environment variable.
//!
//! The binary wires the process-global metric registry into the server, so
//! `GET /metrics` exposes the whole process (training hooks included).
//! `--debug-flight` additionally serves the flight recorder's recent-event
//! ring at `GET /debug/flight`; the ring dumps to stderr on sampler-core
//! panics, reload failures and restart-budget exhaustion regardless.
//!
//! The process runs until a client sends `POST /shutdown`, then shuts down
//! gracefully (in-flight requests drain, bounded by the drain timeout) and
//! exits 0. It exits nonzero only if the supervisor exhausted its sampler-
//! core restart budget (`/healthz` reported `failed`).

use clgen::TrainedModel;
use clgen_serve::{Server, ServerConfig, ServiceHealth};
use predictive::MappingModel;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: clgen-serve --checkpoint PATH \
                     [--mapping-model PATH] \
                     [--addr HOST:PORT] [--lanes N] [--queue-cap N] \
                     [--read-timeout-ms N] [--write-timeout-ms N] \
                     [--drain-timeout-ms N] [--deadline-ms N] \
                     [--restart-budget N] [--restart-window-ms N] \
                     [--debug-flight]";

/// Parse a millisecond count where `0` means "disabled".
fn parse_ms_option(raw: &str, flag: &str) -> Result<Option<Duration>, String> {
    let ms: u64 = raw
        .parse()
        .map_err(|_| format!("{flag} needs an integer (milliseconds; 0 disables)"))?;
    Ok((ms > 0).then(|| Duration::from_millis(ms)))
}

fn main() -> ExitCode {
    let mut checkpoint: Option<String> = None;
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let result: Result<(), String> = (|| {
            match flag.as_str() {
                "--checkpoint" => checkpoint = Some(value("--checkpoint")?),
                "--addr" => config.addr = value("--addr")?,
                "--lanes" => {
                    config.lanes = value("--lanes")?
                        .parse()
                        .map_err(|_| "--lanes needs an integer".to_string())?;
                    if config.lanes == 0 {
                        return Err("--lanes must be at least 1".to_string());
                    }
                }
                "--queue-cap" => {
                    config.queue_cap = value("--queue-cap")?
                        .parse()
                        .map_err(|_| "--queue-cap needs an integer".to_string())?;
                }
                "--read-timeout-ms" => {
                    config.read_timeout = parse_ms_option(&value("--read-timeout-ms")?, &flag)?;
                }
                "--write-timeout-ms" => {
                    config.write_timeout = parse_ms_option(&value("--write-timeout-ms")?, &flag)?;
                }
                "--drain-timeout-ms" => {
                    config.drain_timeout = parse_ms_option(&value("--drain-timeout-ms")?, &flag)?;
                }
                "--deadline-ms" => {
                    config.default_deadline_ms = parse_ms_option(&value("--deadline-ms")?, &flag)?
                        .map(|d| d.as_millis() as u64);
                }
                "--restart-budget" => {
                    config.restart_budget = value("--restart-budget")?
                        .parse()
                        .map_err(|_| "--restart-budget needs an integer".to_string())?;
                }
                "--restart-window-ms" => {
                    config.restart_window = parse_ms_option(&value("--restart-window-ms")?, &flag)?
                        .ok_or("--restart-window-ms must be nonzero")?;
                }
                "--mapping-model" => {
                    let path = value("--mapping-model")?;
                    let model = MappingModel::load(&path)
                        .map_err(|e| format!("cannot load mapping model {path:?}: {e}"))?;
                    config.mapping_model = Some(Arc::new(model));
                }
                "--debug-flight" => config.debug_flight = true,
                "--help" | "-h" => {
                    println!("{USAGE}");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
            }
            Ok(())
        })();
        if let Err(message) = result {
            eprintln!("clgen-serve: {message}");
            return ExitCode::FAILURE;
        }
    }

    let Some(checkpoint) = checkpoint else {
        eprintln!("clgen-serve: --checkpoint is required\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let model = match TrainedModel::load(&checkpoint) {
        Ok(model) => model,
        Err(e) => {
            eprintln!("clgen-serve: cannot load checkpoint {checkpoint:?}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let backend = model.backend_kind();
    let lanes = config.lanes;
    config.metrics = Some(clgen_obs::global());
    let handle = match Server::start(model, config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("clgen-serve: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "clgen-serve: listening on http://{} ({backend} backend, {lanes} lanes); \
         POST /shutdown to stop",
        handle.addr()
    );
    match handle.join() {
        ServiceHealth::Failed => {
            eprintln!("clgen-serve: shut down after exhausting the sampler-core restart budget");
            ExitCode::FAILURE
        }
        _ => {
            println!("clgen-serve: graceful shutdown complete");
            ExitCode::SUCCESS
        }
    }
}
