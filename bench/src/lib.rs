//! Performance ledger for the Twig reproduction.
//!
//! Five named workloads drive the repository's layers from outside through
//! their public functions. An untraced run reports the end-to-end metrics;
//! a traced run (second binary: telemetry armed, counting allocator
//! installed, a span around every call into a layer, probes after the
//! loop) reports the per-layer metrics. `README.md` beside this crate is
//! the glossary; `BENCHMARK.json` at the repository root is the contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod corpus;
pub mod fleet_loop;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod server_loop;
pub mod stats;
pub mod trace;
pub mod window;
pub mod workloads;

use std::process::ExitCode;

/// Boxed error used throughout the benchmark.
pub type BenchError = Box<dyn std::error::Error + Send + Sync>;

/// Entry point shared by the two binaries. `traced_binary` says which one
/// is running: the traced binary installs the counting allocator and
/// serves `--trace 1`, the plain one serves `--trace 0`, the ledger and
/// the comparison.
pub fn main_with(traced_binary: bool) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command {
        cli::Command::Run(opts) if opts.traced != traced_binary => Err(format!(
            "--trace {} is served by the {} binary",
            u8::from(opts.traced),
            if opts.traced {
                "perfbench-traced"
            } else {
                "perfbench"
            }
        )
        .into()),
        cli::Command::Run(opts) => run::run(&opts).map(|report| {
            print!("{}", report.human());
            println!("{}", report.result_line());
            report.correct
        }),
        cli::Command::Ledger(opts) => ledger::run(&opts),
        cli::Command::Compare(a, b) => ledger::compare(&a, &b),
        cli::Command::Describe => {
            print!("{}", ledger::benchmark_json());
            Ok(true)
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
