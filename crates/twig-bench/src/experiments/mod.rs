//! One module per paper table/figure, and the one list of them.
//!
//! Each module exposes `run_to(&mut String, &Options) -> Result<(),
//! ExpError>` appending the regenerated rows or series to a caller-owned
//! buffer. Writing into a buffer (rather than stdout) is what lets
//! [`run_all`] and the intra-figure fleets (`fig01`, `fig04`, `fig05`,
//! `fig06`, `fig13`, `ablation`) run units on worker threads and still emit
//! sections in a fixed, jobs-invariant order — see `crate::fleet` and
//! DESIGN.md §10.
//!
//! [`REGISTRY`] names every module once; the `twig-bench` binary's
//! `<name>`, `all` and `list` all read it, and a name is also the stem of
//! the experiment's reference output under `results/`. See DESIGN.md for
//! the experiment index and `EXPERIMENTS.md` for paper-vs-measured.

use crate::fleet::{run_fleet, FleetRun, Unit};
use crate::{ExpError, Options};

pub mod ablation;
pub mod chaos;
pub mod cluster;
pub mod diurnal;
pub mod federate;
pub mod fig01;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod memcomplexity;
pub mod platform;
pub mod resilience;
pub mod scenario;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod telemetry_report;
pub mod timing;

/// An experiment's entry point: appends its report to the buffer.
pub type RunTo = fn(&mut String, &Options) -> Result<(), ExpError>;

/// Every experiment, in the section order `all` prints.
pub const REGISTRY: &[(&str, RunTo)] = &[
    ("fig01_pmc_vs_ipc", fig01::run_to),
    ("fig04_power_paae", fig04::run_to),
    ("fig05_twig_s_fixed", fig05::run_to),
    ("fig06_mapping_masstree", fig06::run_to),
    ("fig07_learning_curve", fig07::run_to),
    ("fig08_transfer_single", fig08::run_to),
    ("fig09_transfer_colocated", fig09::run_to),
    ("fig10_varying_load_single", fig10::run_to),
    ("fig11_varying_load_colocated", fig11::run_to),
    ("fig12_mapping_colocated", fig12::run_to),
    ("fig13_twig_c_fixed", fig13::run_to),
    ("table1_pmc_selection", table1::run_to),
    ("table2_capacity", table2::run_to),
    ("table3_overhead", table3::run_to),
    ("ablation", ablation::run_to),
    ("diurnal", diurnal::run_to),
    ("memcomplexity", memcomplexity::run_to),
    ("resilience", resilience::run_to),
    ("chaos", chaos::run_to),
    ("cluster", cluster::run_to),
    ("federate", federate::run_to),
    ("timing", timing::run_to),
    ("platform", platform::run_to),
    ("scenario", scenario::run_to),
    ("telemetry_report", telemetry_report::run_to),
];

/// The experiment [`run_all`] never runs beside another: Table III
/// asserts a *process-wide* allocation delta of zero and reports
/// wall-clock, so a concurrent unit would trip the one and pad the other.
const EXCLUSIVE: &str = "table3_overhead";

/// Looks `name` up in [`REGISTRY`].
pub fn find(name: &str) -> Option<RunTo> {
    REGISTRY
        .iter()
        .find(|(known, _)| *known == name)
        .map(|&(_, run_to)| run_to)
}

/// Runs `registry` as one fleet of `opts.jobs` workers, one unit per
/// experiment, then [`EXCLUSIVE`] alone once the workers have drained.
/// Results come back in `registry` order whatever the completion order,
/// and a unit that errors or panics is a failed result, not a dead suite.
pub fn run_all(registry: &[(&str, RunTo)], opts: &Options) -> FleetRun<String> {
    // Figure-level parallelism only: each unit runs its module serially so
    // the fleet is not oversubscribed by nested intra-figure units.
    let inner = Options {
        jobs: 1,
        ..opts.clone()
    };
    let inner = &inner;
    let units = |exclusive: bool| -> Vec<Unit<'_>> {
        registry
            .iter()
            .filter(|(name, _)| (*name == EXCLUSIVE) == exclusive)
            .map(|&(name, run_to)| {
                Unit::new(name, move |_seed| {
                    let mut section = String::new();
                    run_to(&mut section, inner)?;
                    Ok(section)
                })
            })
            .collect()
    };
    let shared = run_fleet(units(false), opts.jobs, opts.seed);
    let alone = run_fleet(units(true), 1, opts.seed);

    let mut stats = shared.stats;
    stats.units_total += alone.stats.units_total;
    stats.units_ok += alone.stats.units_ok;
    stats.units_failed += alone.stats.units_failed;
    stats.wall_ms += alone.stats.wall_ms;
    stats.busy_ms[0] += alone.stats.busy_ms[0];
    let (mut shared, mut alone) = (shared.results.into_iter(), alone.results.into_iter());
    let results = registry
        .iter()
        .map(|(name, _)| {
            let next = if *name == EXCLUSIVE {
                alone.next()
            } else {
                shared.next()
            };
            next.expect("one result per unit")
        })
        .collect();
    FleetRun { results, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn registry_names_every_module_once() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len(), "duplicate registry name");
        let modules = include_str!("mod.rs")
            .lines()
            .filter(|line| line.starts_with("pub mod "))
            .count();
        assert_eq!(REGISTRY.len(), modules, "a module without a registry row");
        assert!(find(EXCLUSIVE).is_some());
        assert!(find("nope").is_none());
    }

    static FINISHED: AtomicUsize = AtomicUsize::new(0);
    static FINISHED_BEFORE_EXCLUSIVE: AtomicUsize = AtomicUsize::new(usize::MAX);

    fn ok(out: &mut String, opts: &Options) -> Result<(), ExpError> {
        out.push_str(&format!("jobs {}\n", opts.jobs));
        FINISHED.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    fn bad(_: &mut String, _: &Options) -> Result<(), ExpError> {
        FINISHED.fetch_add(1, Ordering::SeqCst);
        Err("deliberate".into())
    }

    fn exclusive(out: &mut String, _: &Options) -> Result<(), ExpError> {
        FINISHED_BEFORE_EXCLUSIVE.store(FINISHED.load(Ordering::SeqCst), Ordering::SeqCst);
        out.push_str("alone\n");
        Ok(())
    }

    #[test]
    fn run_all_is_ordered_fail_soft_and_runs_the_exclusive_unit_last() {
        let registry: &[(&str, RunTo)] = &[
            ("first", ok),
            (EXCLUSIVE, exclusive),
            ("broken", bad),
            ("last", ok),
        ];
        let opts = Options {
            jobs: 3,
            ..Options::default()
        };
        let run = run_all(registry, &opts);
        let labels: Vec<&str> = run.results.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["first", EXCLUSIVE, "broken", "last"]);
        assert_eq!(run.results[0].outcome.as_deref(), Ok("jobs 1\n"));
        assert_eq!(run.results[1].outcome.as_deref(), Ok("alone\n"));
        assert!(run.results[2].outcome.is_err());
        assert!(run.results[3].outcome.is_ok());
        assert_eq!(FINISHED_BEFORE_EXCLUSIVE.load(Ordering::SeqCst), 3);
        assert_eq!((run.stats.units_total, run.stats.units_failed), (4, 1));
        assert_eq!(run.stats.jobs, 3);
    }
}
