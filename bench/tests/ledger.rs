//! End-to-end self-tests: a smoke ledger through the real binaries, the
//! shape of what it writes, and `BENCHMARK.json` held against the metric
//! and workload tables.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use twig_perfbench::json::{self, Value};
use twig_perfbench::ledger::SCHEMA;
use twig_perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use twig_perfbench::workloads::{Workload, WORKLOADS};

const PLAIN: &str = env!("CARGO_BIN_EXE_perfbench");
const TRACED: &str = env!("CARGO_BIN_EXE_perfbench-traced");

/// Per-layer metrics that may legitimately read 0 on the workloads that
/// measure them: counts of things a healthy short run does not do.
const MAY_BE_ZERO: &[&str] = &[
    "trace.unaccounted_share",
    "core.governor_safe_mode_epochs",
    "core.governor_fallback_decisions",
    "core.sched_deadline_misses",
    "rl.nonfinite_rejections",
    "rl.quarantine_trips",
    "rl.steady_allocs",
    "platform.linux_divergences",
    "cluster.fed_payloads_rejected",
    "cluster.failovers",
    "cluster.migrations_completed",
    "cluster.bounced_rps",
    "cluster.conservation_failures",
    "cluster.round_epoch_extra_us",
];

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn metrics_of(run: &Value) -> &std::collections::BTreeMap<String, Value> {
    run.get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
}

/// One run's result object: exactly the contract's keys, whole-number
/// counts, and every metric of `table` present, finite and carrying its
/// unit.
fn check_run(run: &Value, table: &[MetricDef], context: &str) {
    let keys: Vec<&str> = run
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{context}"
    );
    assert_eq!(run.get("correct"), Some(&Value::Bool(true)), "{context}");
    let attempted = run.get("attempted").and_then(Value::as_f64).unwrap();
    assert!(attempted >= 1.0 && attempted.fract() == 0.0, "{context}");
    assert_eq!(
        run.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{context}"
    );
    let metrics = metrics_of(run);
    let names: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
    let wanted: BTreeSet<&str> = table.iter().map(|d| d.name).collect();
    assert_eq!(names, wanted, "{context}: metric names");
    for def in table {
        let entry = &metrics[def.name];
        let value = entry.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{context}: {} is {value:?}",
            def.name
        );
        assert_eq!(
            entry.get("unit").and_then(Value::as_str),
            Some(def.unit),
            "{context}: unit of {}",
            def.name
        );
    }
}

fn value_of(run: &Value, name: &str) -> f64 {
    metrics_of(run)[name]
        .get("value")
        .and_then(Value::as_f64)
        .unwrap()
}

#[test]
fn smoke_ledger_reports_every_metric_and_agrees_with_itself() {
    let out = out_dir("smoke-ledger");
    let status = Command::new(PLAIN)
        .args(["ledger", "--smoke", "--seed", "7", "--out"])
        .arg(&out)
        .status()
        .expect("run the ledger");
    assert!(status.success(), "the smoke ledger failed: {status}");

    let path = out.join("results.json");
    let results = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(results.get("schema").and_then(Value::as_str), Some(SCHEMA));
    assert_eq!(results.get("seed").and_then(Value::as_f64), Some(7.0));
    assert_eq!(results.get("smoke"), Some(&Value::Bool(true)));
    let fingerprint = results.get("fingerprint").expect("fingerprint");
    for key in ["nproc", "cpu_model", "rustc", "commit"] {
        assert!(fingerprint.get(key).is_some(), "fingerprint lacks {key}");
    }

    let workloads = results.get("workloads").and_then(Value::as_array).unwrap();
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    let expected: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);

    let mut seen_nonzero = BTreeSet::new();
    for (workload, entry) in WORKLOADS.iter().zip(workloads) {
        let name = workload.name();
        assert_eq!(
            entry.get("why").and_then(Value::as_str),
            Some(workload.why())
        );
        let plain = entry.get("end_to_end").expect("untraced run");
        check_run(plain, END_TO_END, &format!("{name} untraced"));
        for def in END_TO_END {
            assert!(value_of(plain, def.name) > 0.0, "{name}: {} is 0", def.name);
        }
        let traced = entry.get("per_layer").expect("traced run");
        check_run(traced, PER_LAYER, &format!("{name} traced"));
        for def in PER_LAYER {
            if value_of(traced, def.name) != 0.0 {
                seen_nonzero.insert(def.name);
            }
        }
        if workload.pinned() {
            assert_eq!(
                value_of(traced, "core.governor_primary_share"),
                1.0,
                "{name}"
            );
        }
        let overhead = entry
            .get("ledger")
            .and_then(|l| l.get("telemetry.armed_overhead_pct"))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64);
        assert!(overhead.is_some_and(f64::is_finite), "{name}: overhead");
        assert!(
            out.join(format!("trace_{name}.jsonl")).is_file(),
            "{name}: no trace file"
        );
    }
    // Every per-layer metric is measured by at least one workload.
    for def in PER_LAYER {
        assert!(
            seen_nonzero.contains(def.name) || MAY_BE_ZERO.contains(&def.name),
            "{} read 0 on every workload",
            def.name
        );
    }
    assert!(
        !out.join("tmp").exists(),
        "scratch checkpoints were left behind"
    );

    // Trace files are JSON Lines of spans whose parents precede them.
    let trace = std::fs::read_to_string(out.join("trace_learn_c2.jsonl")).unwrap();
    let mut names = BTreeSet::new();
    for (index, line) in trace.lines().enumerate() {
        let span = json::parse(line).unwrap();
        assert_eq!(span.get("id").and_then(Value::as_f64), Some(index as f64));
        if let Some(parent) = span.get("parent").and_then(Value::as_f64) {
            assert!(parent < index as f64);
        }
        names.insert(
            span.get("name")
                .and_then(Value::as_str)
                .unwrap()
                .to_string(),
        );
    }
    let expected = [
        "core.decide",
        "core.observe",
        "epoch",
        "platform.actuate",
        "sim.step",
    ];
    assert_eq!(
        names.iter().map(String::as_str).collect::<Vec<_>>(),
        expected
    );

    // A set always agrees with itself.
    let status = Command::new(PLAIN)
        .arg("compare")
        .args([&path, &path])
        .status()
        .unwrap();
    assert!(status.success());
}

#[test]
fn a_binary_refuses_the_other_ones_trace_mode_and_bad_arguments() {
    let out = out_dir("refusals");
    let wrong = Command::new(PLAIN)
        .args([
            "--workload",
            "corpus",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "1",
            "--out",
        ])
        .arg(&out)
        .output()
        .unwrap();
    assert!(!wrong.status.success());
    assert!(wrong.stdout.is_empty(), "a refused run prints no result");
    let wrong = Command::new(TRACED)
        .args(["--workload", "corpus", "--trace", "0"])
        .output()
        .unwrap();
    assert!(!wrong.status.success() && wrong.stdout.is_empty());
    let bad = Command::new(PLAIN)
        .args(["--workload", "nope", "--trace", "0"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown workload"));
}

#[test]
fn benchmark_json_is_what_the_tables_describe() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        text,
        twig_perfbench::ledger::benchmark_json(),
        "regenerate it with `perfbench describe > BENCHMARK.json`"
    );

    // The contract's limits on the file itself.
    assert!(text.len() <= 64 * 1024);
    let doc = json::parse(&text).unwrap();
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    let count = |key: &str| doc.get(key).and_then(Value::as_array).unwrap().len();
    assert_eq!(count("workloads"), WORKLOADS.len());
    assert_eq!(count("end_to_end"), END_TO_END.len());
    assert_eq!(count("per_layer"), PER_LAYER.len());
    for workload in WORKLOADS {
        assert_eq!(Workload::by_name(workload.name()), Some(workload));
    }
}
