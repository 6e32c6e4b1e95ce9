//! The repository's benchmark: the whole TE interval — demands in, SR
//! paths installed in every host's `path_map` — on four named
//! workloads, with a per-layer budget. See `README.md` beside this
//! package for the glossary and `run.sh` for the one command.
//!
//! ```text
//! megate-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! megate-benchmark [--seed N] [--seconds S] [--trace 0|1] [--repeat]
//! ```
//!
//! With `--workload` one workload runs in this process and the last
//! line of standard output is its result as one JSON object. Without
//! it every workload runs, each in a child process of its own (so peak
//! memory and the program's global state are per workload, exactly as
//! a single-workload run measures them); `--repeat` does that twice
//! and compares the two sets against the metrics' bounds.

mod control;
mod fastpath;
mod fleet;
mod instance;
mod metrics;
mod replay;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

const DEFAULT_SEED: u64 = 7;
const DEFAULT_SECONDS: f64 = 16.0;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if name != "all" {
                    args.workload = Some(name);
                }
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--repeat" => args.repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("megate-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        Some(name) => match workloads::find(name) {
            Some(w) => report::run_one(w, &args),
            None => {
                eprintln!(
                    "megate-benchmark: no workload {name}; have {}",
                    workloads::WORKLOADS.map(|w| w.name).join(", ")
                );
                return ExitCode::from(2);
            }
        },
        None => report::run_sets(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
