//! Drives the real `twig-bench` binary: the registry is what `list`
//! prints, a name dispatches to its experiment (checked against the
//! committed analytic reference outputs), and usage errors exit 2 while
//! `--help` exits 0.

use std::process::{Command, Output};
use twig_bench::experiments::REGISTRY;

fn twig_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_twig-bench"))
        .args(args)
        .output()
        .expect("twig-bench runs")
}

fn stdout(output: &Output) -> &str {
    std::str::from_utf8(&output.stdout).expect("utf-8 stdout")
}

fn stderr(output: &Output) -> &str {
    std::str::from_utf8(&output.stderr).expect("utf-8 stderr")
}

fn registry_names() -> Vec<&'static str> {
    REGISTRY.iter().map(|(name, _)| *name).collect()
}

#[test]
fn list_prints_the_registry() {
    let out = twig_bench(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(stdout(&out).lines().collect::<Vec<_>>(), registry_names());
}

#[test]
fn a_name_prints_its_experiment_byte_for_byte() {
    for (name, reference) in [
        (
            "memcomplexity",
            include_str!("../../../results/memcomplexity.txt"),
        ),
        (
            "table2_capacity",
            include_str!("../../../results/table2_capacity.txt"),
        ),
    ] {
        let out = twig_bench(&[name]);
        assert_eq!(out.status.code(), Some(0), "{name}: {}", stderr(&out));
        assert_eq!(stdout(&out), reference, "{name} drifted from results/");
    }
}

#[test]
fn help_goes_to_stdout_and_exits_zero() {
    for args in [&["--help"][..], &["-h"], &["memcomplexity", "--help"]] {
        let out = twig_bench(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let text = stdout(&out);
        assert!(text.starts_with("usage: twig-bench"), "{text}");
        for name in registry_names() {
            assert!(text.contains(name), "usage is missing {name}");
        }
    }
}

#[test]
fn usage_errors_exit_two_and_name_the_experiments() {
    for args in [
        &["no_such_experiment"][..],
        &[],
        &["memcomplexity", "--bogus"],
        &["memcomplexity", "--jobs", "0"],
    ] {
        let out = twig_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert!(stderr(&out).contains("table3_overhead"), "{args:?}");
    }
}
