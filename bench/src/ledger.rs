//! The ledger: every workload untraced, then traced, each in a process of
//! its own, gathered into `results.json`; and the A/A comparison of two
//! such files.

use crate::cli::LedgerOptions;
use crate::json::{self, Value};
use crate::metrics::{def, MetricDef, END_TO_END, EXACT_AT_A_SEED, EXACT_ON_CORPUS};
use crate::workloads::{Workload, WORKLOADS};
use crate::BenchError;
use std::path::{Path, PathBuf};
use std::process::Command;
use twig_telemetry::json::JsonObject;

/// Schema tag of `results.json`.
pub const SCHEMA: &str = "twig-perfbench/1";

/// The untraced and traced binaries, found beside the running one.
fn binaries() -> Result<(PathBuf, PathBuf), BenchError> {
    let me = std::env::current_exe()?;
    let dir = me.parent().ok_or("the binary has no directory")?;
    let exe = std::env::consts::EXE_SUFFIX;
    Ok((
        dir.join(format!("perfbench{exe}")),
        dir.join(format!("perfbench-traced{exe}")),
    ))
}

/// Runs one child to completion and returns its stdout.
fn child(
    binary: &Path,
    workload: Workload,
    traced: bool,
    opts: &LedgerOptions,
) -> Result<String, BenchError> {
    let mut cmd = Command::new(binary);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output()?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if stdout.lines().last().is_none_or(|l| !l.starts_with('{')) {
        return Err(format!(
            "{} {} printed no result ({})",
            binary.display(),
            workload.name(),
            output.status
        )
        .into());
    }
    Ok(stdout)
}

fn result_of(stdout: &str) -> Result<(String, Value), BenchError> {
    let line = stdout.lines().last().unwrap_or_default().to_string();
    let value = json::parse(&line)?;
    Ok((line, value))
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn is_correct(result: &Value) -> bool {
    result.get("correct").and_then(Value::as_bool) == Some(true)
}

/// The machine fingerprint `results.json` records.
fn fingerprint() -> String {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    let mut o = JsonObject::new();
    o.field_u64(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
    );
    o.field_str("cpu_model", &cpu_model);
    o.field_str("rustc", &env("PERFBENCH_RUSTC"));
    o.field_str("commit", &env("PERFBENCH_COMMIT"));
    o.finish()
}

fn ledger_metric(def: &MetricDef, value: f64) -> String {
    let mut o = JsonObject::new();
    o.field_object(def.name, |m| {
        m.field_f64("value", value);
        m.field_str("unit", def.unit);
    });
    o.finish()
}

/// Runs the ledger and writes `<out>/<results>`. Returns whether every
/// run was correct.
///
/// # Errors
///
/// Returns an error when a child cannot be started or prints no result,
/// or the results file cannot be written.
pub fn run(opts: &LedgerOptions) -> Result<bool, BenchError> {
    let (untraced_bin, traced_bin) = binaries()?;
    std::fs::create_dir_all(&opts.out)?;
    let overhead_def = def("telemetry.armed_overhead_pct").expect("defined");
    let build_def = def("build.release_s").expect("defined");
    let mut all_correct = true;
    let mut entries = Vec::new();
    for workload in WORKLOADS {
        if opts.workload.is_some_and(|only| only != workload) {
            continue;
        }
        let (plain_line, plain) = result_of(&child(&untraced_bin, workload, false, opts)?)?;
        let (traced_line, traced) = result_of(&child(&traced_bin, workload, true, opts)?)?;
        all_correct &= is_correct(&plain) && is_correct(&traced);
        let plain_rate = metric(&plain, "epochs_per_s").unwrap_or(0.0);
        let traced_rate = metric(&traced, "trace.epochs_per_s").unwrap_or(0.0);
        let overhead_pct = if plain_rate > 0.0 {
            100.0 * (1.0 - traced_rate / plain_rate)
        } else {
            0.0
        };
        println!(
            "  {:<34} {:>16.4} {}  (untraced {plain_rate:.2} vs traced {traced_rate:.2} epochs/s)\n",
            overhead_def.name, overhead_pct, overhead_def.unit
        );
        let mut head = JsonObject::new();
        head.field_str("name", workload.name());
        head.field_str("why", workload.why());
        let head = head.finish();
        entries.push(format!(
            "{},\"end_to_end\":{plain_line},\"per_layer\":{traced_line},\"ledger\":{}}}",
            head.trim_end_matches('}'),
            ledger_metric(overhead_def, overhead_pct)
        ));
    }

    let build_s = std::env::var("PERFBENCH_BUILD_S")
        .ok()
        .and_then(|s| s.parse::<f64>().ok());
    let build = match build_s {
        Some(seconds) => {
            println!(
                "  {:<34} {:>16.4} {}",
                build_def.name, seconds, build_def.unit
            );
            let clean = std::env::var("PERFBENCH_BUILD_CLEAN").is_ok_and(|v| v == "1");
            format!(
                "{{\"clean\":{clean},\"metrics\":{}}}",
                ledger_metric(build_def, seconds)
            )
        }
        None => "null".into(),
    };
    let text = format!(
        "{{\"schema\":\"{SCHEMA}\",\"seed\":{},\"seconds\":{},\"smoke\":{},\"fingerprint\":{},\"build\":{build},\"workloads\":[\n{}\n]}}\n",
        opts.seed,
        opts.seconds,
        opts.smoke,
        fingerprint(),
        entries.join(",\n")
    );
    json::parse(&text).map_err(|e| format!("results.json would not parse: {e}"))?;
    let path = opts.out.join(&opts.results);
    std::fs::write(&path, text)?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

/// `BENCHMARK.json` as the tables define it: the one command, the paths,
/// the window length, the workloads with their reasons and every metric
/// with unit, direction and (end to end) bound.
pub fn benchmark_json() -> String {
    let defs = |table: &[MetricDef]| -> String {
        let rows: Vec<String> = table
            .iter()
            .map(|d| {
                let mut o = JsonObject::new();
                o.field_str("name", d.name);
                o.field_str("unit", d.unit);
                o.field_str("better", d.better.as_str());
                if let Some(bound) = d.bound {
                    o.field_f64("bound", bound);
                }
                format!("    {}", o.finish())
            })
            .collect();
        rows.join(",\n")
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            let mut o = JsonObject::new();
            o.field_str("name", w.name());
            o.field_str("why", w.why());
            format!("    {}", o.finish())
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"bench/run.sh\"],\n  \"paths\": [\"bench\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        crate::cli::DEFAULT_SECONDS,
        workloads.join(",\n"),
        defs(END_TO_END),
        defs(crate::metrics::PER_LAYER)
    )
}

fn load(path: &Path) -> Result<Value, BenchError> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let value = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if value.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("{}: not a {SCHEMA} results file", path.display()).into());
    }
    Ok(value)
}

fn workloads_of(results: &Value) -> Vec<(&str, &Value)> {
    results
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| Some((w.get("name")?.as_str()?, w)))
        .collect()
}

/// Compares two results files of the same code, the A/A check: every
/// workload × end-to-end metric must agree within the metric's bound, and
/// every metric that is exact at a fixed seed must be identical. Prints
/// one line per pair; returns whether everything agreed.
///
/// # Errors
///
/// Returns an error when a file cannot be read or is not a results file.
pub fn compare(a: &Path, b: &Path) -> Result<bool, BenchError> {
    let (first, second) = (load(a)?, load(b)?);
    let second = workloads_of(&second);
    let mut agreed = true;
    println!(
        "{:<11} {:<28} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (name, one) in workloads_of(&first) {
        let Some((_, two)) = second.iter().find(|(n, _)| *n == name) else {
            println!("{name:<11} missing from the second set: DISAGREE");
            agreed = false;
            continue;
        };
        for def in END_TO_END {
            let bound = def.bound.unwrap_or(0.0);
            let pair = one
                .get("end_to_end")
                .and_then(|r| metric(r, def.name))
                .zip(two.get("end_to_end").and_then(|r| metric(r, def.name)));
            let Some((x, y)) = pair else {
                println!("{name:<11} {:<28} missing: DISAGREE", def.name);
                agreed = false;
                continue;
            };
            let diff = if x != 0.0 { (y - x) / x } else { 0.0 };
            let ok = diff.abs() <= bound;
            agreed &= ok;
            println!(
                "{name:<11} {:<28} {x:>14.4} {y:>14.4} {:>+7.2}% {:>6.0}%  {}",
                def.name,
                100.0 * diff,
                100.0 * bound,
                if ok { "AGREE" } else { "DISAGREE" }
            );
        }
        let exact = EXACT_AT_A_SEED.iter().chain(if name == "corpus" {
            EXACT_ON_CORPUS.iter()
        } else {
            [].iter()
        });
        for metric_name in exact {
            let x = one.get("per_layer").and_then(|r| metric(r, metric_name));
            let y = two.get("per_layer").and_then(|r| metric(r, metric_name));
            let ok = x.is_some() && x == y;
            agreed &= ok;
            println!(
                "{name:<11} {metric_name:<28} {:>14} {:>14} {:>8} {:>7}  {}",
                x.map_or("-".into(), |v| v.to_string()),
                y.map_or("-".into(), |v| v.to_string()),
                "",
                "exact",
                if ok { "AGREE" } else { "DISAGREE" }
            );
        }
    }
    println!(
        "{}",
        if agreed {
            "A/A: both sets agree within the benchmark's bounds"
        } else {
            "A/A: the sets DISAGREE"
        }
    );
    Ok(agreed)
}
