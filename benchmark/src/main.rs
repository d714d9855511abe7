//! The repo benchmark. See `benchmark/README.md`.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload in this process; the result is the last line of stdout.
//! * `[--seed N]` — the suite: every workload untraced, then traced, each
//!   in a child process; prints every metric and writes
//!   `benchmark/out/results.json`.
//! * `aa [--seed N]` — the suite twice; fails unless the two agree within
//!   every end-to-end bound.
//! * `spec` — print `BENCHMARK.json`.

mod harness;
mod layers;
mod refkernel;
mod result;
mod rng;
mod spec;
mod stats;
mod suite;
mod sys;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Where the trace and the suite's results go, relative to the repo root
/// (`run.sh` changes into it).
const OUT_DIR: &str = "benchmark/out";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Cli {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => cli.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                cli.seconds = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
                if !(1..=60).contains(&cli.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "aa" | "spec" if cli.command.is_none() => cli.command = Some(arg.clone()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match (cli.command.as_deref(), &cli.workload) {
        (Some("spec"), _) => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        (Some("aa"), _) => suite::run_aa(cli.seed, cli.seconds),
        (_, None) => suite::run_suite(cli.seed, cli.seconds),
        (_, Some(name)) => {
            let Some(mut w) = workloads::build(name, cli.seed) else {
                eprintln!("error: unknown workload '{name}'");
                return ExitCode::from(2);
            };
            let result = if cli.trace {
                let path = PathBuf::from(OUT_DIR).join(format!("trace_{name}.json"));
                harness::run_traced(w.as_mut(), cli.seconds, &path)
            } else {
                harness::run_untraced(w.as_mut(), cli.seconds)
            };
            println!("{}", result.to_json());
            // A failed check is reported in the result line; the exit
            // code stays 0 so the line is read.
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_contract_and_suite_forms() {
        let c = parse_cli(&args(
            "--workload amr1d_blast --seed 7 --seconds 5 --trace 1",
        ))
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("amr1d_blast"));
        assert_eq!((c.seed, c.seconds, c.trace), (7, 5, true));
        let c = parse_cli(&args("aa --seed 3")).unwrap();
        assert_eq!((c.command.as_deref(), c.seed), (Some("aa"), 3));
        assert_eq!(parse_cli(&[]).unwrap().seed, 1);
        assert!(parse_cli(&args("--trace 2")).is_err());
        assert!(parse_cli(&args("--seconds 0")).is_err());
        assert!(parse_cli(&args("--seed")).is_err());
        assert!(parse_cli(&args("bogus")).is_err());
    }
}
