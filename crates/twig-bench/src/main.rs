//! The harness's one front door:
//! `twig-bench <name>|all|list [--full|--fast|--smoke] [--seed N] [--jobs N] [--trace PATH]`.
//!
//! `<name>` runs one [`REGISTRY`] experiment and prints its report; `all`
//! runs the whole registry as a `--jobs N` fleet and prints the sections
//! in registry order, so `all --jobs 8 > out.txt` matches `--jobs 1` byte
//! for byte wherever the experiments themselves are deterministic; `list`
//! prints the names. `bench_decide [--smoke] [--baseline PATH] [OUT]` is
//! the decide-latency sweep (see `twig_bench::bench_decide`).
//!
//! The binary installs the counting global allocator from `twig-nn`, so
//! Table III's "steady-state heap allocations" row and `bench_decide`
//! measure (and assert) the zero-allocation discipline of the hot path.
//! Library and test hosts without the allocator print "n/a" for that row.

use twig_bench::experiments::{find, run_all, REGISTRY};
use twig_bench::Options;

#[global_allocator]
static ALLOC: twig_nn::CountingAlloc = twig_nn::CountingAlloc;

fn usage() -> String {
    let mut text = format!(
        "usage: twig-bench <name>|all|list {}\n       twig-bench bench_decide [--smoke] [--baseline PATH] [OUT]\nexperiments:\n",
        Options::USAGE
    );
    for (name, _) in REGISTRY {
        text.push_str(&format!("  {name}\n"));
    }
    text
}

fn usage_error(msg: &str) -> ! {
    eprintln!("twig-bench: {msg}");
    eprint!("{}", usage());
    std::process::exit(2);
}

/// Runs the whole registry as one fleet and prints it; returns the exit
/// code (non-zero if any unit failed — the rest still complete).
fn all(opts: &Options) -> i32 {
    let run = run_all(REGISTRY, opts);
    let mut failed = Vec::new();
    for result in &run.results {
        println!("{:=^72}", format!(" {} ", result.label));
        match &result.outcome {
            Ok(section) => print!("{section}"),
            Err(reason) => {
                println!("[unit failed, suite continues] {reason}");
                failed.push(result.label.as_str());
            }
        }
        println!();
    }

    // Fleet accounting, echoed for the log.
    println!(
        "fleet: {}/{} units ok, {} jobs, wall {:.1} s, utilization {:.0}%",
        run.stats.units_ok,
        run.stats.units_total,
        run.stats.jobs,
        run.stats.wall_ms / 1e3,
        100.0 * run.stats.utilization()
    );
    for (i, &busy) in run.stats.busy_ms.iter().enumerate() {
        println!("  thread {i}: busy {:.1} s", busy / 1e3);
    }
    if failed.is_empty() {
        return 0;
    }
    eprintln!(
        "twig-bench all: {} unit(s) failed: {}",
        failed.len(),
        failed.join(", ")
    );
    1
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, flags)) = args.split_first() else {
        usage_error("missing experiment name");
    };
    if command == "bench_decide" {
        return twig_bench::bench_decide::run(flags.iter().cloned());
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return;
    }
    if command == "list" {
        for (name, _) in REGISTRY {
            println!("{name}");
        }
        return;
    }
    let opts = Options::parse_from(flags.iter().cloned()).unwrap_or_else(|msg| usage_error(&msg));
    if command == "all" {
        std::process::exit(all(&opts));
    }
    let Some(run_to) = find(command) else {
        usage_error(&format!("unknown experiment {command}"));
    };
    // Print whatever was rendered before reporting a failure: a suite that
    // fails an invariant has usually written the rows that show why.
    let mut out = String::new();
    let result = run_to(&mut out, &opts);
    print!("{out}");
    if let Err(e) = result {
        eprintln!("{command} failed: {e}");
        std::process::exit(1);
    }
}
