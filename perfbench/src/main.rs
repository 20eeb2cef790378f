//! The repository's end-to-end benchmark: request→indication latency,
//! throughput, memory, set-up and recovery of the block-DAG embedding on
//! three workloads, with a traced run that breaks the time down by layer.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--data-dir <dir>]`. See `README.md` beside this package.

mod catchup;
mod common;
mod composed;
mod inproc;
mod tcp;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    data_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut data_dir = PathBuf::from(".bench_build/perfbench-data");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--data-dir" => data_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        data_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "payments_inproc" => inproc::run(args.seed, args.seconds, args.trace, &args.data_dir),
        "catchup_burst" => catchup::run(args.seed, args.seconds, args.trace, &args.data_dir),
        "tcp_loopback" => tcp::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    outcome.print();
    ExitCode::SUCCESS
}
