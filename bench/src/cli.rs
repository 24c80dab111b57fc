//! Command lines of the two binaries.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//! perfbench ledger [--seed N] [--seconds S] [--workload NAME] [--smoke] [--out DIR]
//! perfbench compare A.json B.json
//! perfbench describe
//! ```

use crate::run::RunOptions;
use crate::workloads::Workload;
use std::path::PathBuf;

/// Default seed of the ledger.
pub const DEFAULT_SEED: u64 = 42;
/// Default timed-window length, seconds: `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;
/// Timed-window length of a smoke run, seconds.
pub const SMOKE_SECONDS: f64 = 0.1;

/// What the binary was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// One run of one workload; the last stdout line is the result.
    Run(RunOptions),
    /// Every workload untraced then traced; writes `results.json`.
    Ledger(LedgerOptions),
    /// A/A comparison of two `results.json` files.
    Compare(PathBuf, PathBuf),
    /// Print `BENCHMARK.json` as the metric and workload tables define it.
    Describe,
}

/// Options of the ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerOptions {
    /// Workload seed.
    pub seed: u64,
    /// Timed-window length per run, seconds.
    pub seconds: f64,
    /// Only this workload.
    pub workload: Option<Workload>,
    /// Smoke scale.
    pub smoke: bool,
    /// Output directory.
    pub out: PathBuf,
    /// File name of the results inside `out`.
    pub results: String,
}

/// The benchmark's output directory when `--out` is not given: `out/`
/// beside the crate's manifest.
pub fn default_out() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a String>) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: {text:?} is not a valid number"))
}

/// The timed-window length: what was asked for, else the scale's default.
fn window_seconds(given: Option<f64>, smoke: bool) -> Result<f64, String> {
    let seconds = given.unwrap_or(if smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    if seconds > 0.0 && seconds <= 60.0 {
        Ok(seconds)
    } else {
        Err(format!("--seconds: {seconds} is outside (0, 60]"))
    }
}

fn workload(text: &str) -> Result<Workload, String> {
    Workload::by_name(text).ok_or_else(|| format!("unknown workload {text:?}"))
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Returns a message naming the first bad argument.
pub fn parse(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => Ok(Command::Compare(a.into(), b.into())),
            _ => Err("compare needs two results files".into()),
        },
        Some("ledger") => parse_ledger(&args[1..]),
        Some("describe") if args.len() == 1 => Ok(Command::Describe),
        _ => parse_run(args),
    }
}

fn parse_run(args: &[String]) -> Result<Command, String> {
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut out) = (false, default_out());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => name = Some(workload(value(flag, &mut it)?)?),
            "--seed" => seed = Some(number::<u64>(flag, value(flag, &mut it)?)?),
            "--seconds" => seconds = Some(number::<f64>(flag, value(flag, &mut it)?)?),
            "--trace" => {
                trace = Some(match value(flag, &mut it)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
                })
            }
            "--smoke" => smoke = true,
            "--out" => out = value(flag, &mut it)?.into(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Command::Run(RunOptions {
        workload: name.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: window_seconds(seconds, smoke)?,
        traced: trace.ok_or("--trace is required")?,
        smoke,
        out,
    }))
}

fn parse_ledger(args: &[String]) -> Result<Command, String> {
    let mut opts = LedgerOptions {
        seed: DEFAULT_SEED,
        seconds: 0.0,
        workload: None,
        smoke: false,
        out: default_out(),
        results: "results.json".into(),
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => opts.workload = Some(workload(value(flag, &mut it)?)?),
            "--seed" => opts.seed = number(flag, value(flag, &mut it)?)?,
            "--seconds" => seconds = Some(number::<f64>(flag, value(flag, &mut it)?)?),
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = value(flag, &mut it)?.into(),
            "--results" => opts.results = value(flag, &mut it)?.into(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    opts.seconds = window_seconds(seconds, opts.smoke)?;
    Ok(Command::Ledger(opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let cmd = parse(&args("--workload learn_c2 --seed 7 --seconds 10 --trace 1")).unwrap();
        let Command::Run(opts) = cmd else {
            panic!("expected a run")
        };
        assert_eq!(opts.workload, Workload::LearnC2);
        assert_eq!(
            (opts.seed, opts.seconds, opts.traced, opts.smoke),
            (7, 10.0, true, false)
        );
    }

    #[test]
    fn bad_arguments_are_named() {
        for (line, needle) in [
            ("--workload nope --trace 0", "unknown workload"),
            ("--workload corpus --trace 2", "neither 0 nor 1"),
            ("--workload corpus", "--trace is required"),
            ("--trace 0", "--workload is required"),
            ("--workload corpus --trace 0 --seed x", "not a valid number"),
            ("--workload corpus --trace 0 --seconds 0", "outside"),
            ("--workload corpus --trace 0 --seed", "needs a value"),
            ("--bogus", "unknown argument"),
            ("compare one.json", "two results files"),
            ("ledger --seconds 99", "outside"),
        ] {
            let err = parse(&args(line)).unwrap_err();
            assert!(err.contains(needle), "{line:?} gave {err:?}");
        }
    }

    #[test]
    fn the_ledger_defaults_follow_the_scale() {
        let Command::Ledger(full) = parse(&args("ledger")).unwrap() else {
            panic!("expected a ledger")
        };
        assert_eq!(
            (full.seed, full.seconds, full.smoke),
            (42, DEFAULT_SECONDS, false)
        );
        let Command::Ledger(smoke) = parse(&args("ledger --smoke --workload corpus")).unwrap()
        else {
            panic!("expected a ledger")
        };
        assert_eq!(smoke.seconds, SMOKE_SECONDS);
        assert_eq!(smoke.workload, Some(Workload::Corpus));
    }
}
