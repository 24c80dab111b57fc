//! Scenario corpus runner — executes every shipped `.scn` file under
//! `scenarios/` and reports per-scenario PASS/FAIL with assertion
//! diagnostics. Not a paper figure: the corpus is the repo's executable
//! specification of the behaviours the stack guarantees (load shapes,
//! churn, faults, timing pressure, crash recovery, cluster failover).
//!
//! Scenarios are self-seeded — each pins its own `seed` in the DSL and
//! ignores the fleet's per-unit seed — so the report is bit-identical at
//! any `--jobs` and any `--seed`. A failing assertion fails the suite
//! (the run returns an error after printing the full report).

use crate::{run_fleet, ExpError, Options, TextTable, Unit};
use std::fmt::Write as _;
use twig_scenario::{corpus, parse, ScenarioOutcome, ScenarioRunner, Topology};

/// Parses and runs one corpus entry.
fn run_one(file: &str, text: &str) -> Result<ScenarioOutcome, ExpError> {
    let scenario = parse(text).map_err(|e| format!("{file}: {e}"))?;
    let outcome = ScenarioRunner::new(scenario)
        .map_err(|e| format!("{file}: {e}"))?
        .run()
        .map_err(|e| format!("{file}: {e}"))?;
    Ok(outcome)
}

/// Runs the corpus as a fleet and appends the report.
///
/// # Errors
///
/// Returns an error when a scenario fails to parse/compile/run or when
/// any scenario's assertions fail (after the full report is appended).
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let entries = corpus();
    writeln!(
        out,
        "Scenario corpus: {} scenarios from scenarios/*.scn (self-seeded; report is jobs- and seed-invariant)\n",
        entries.len()
    )?;

    let units: Vec<Unit<'_, ScenarioOutcome>> = entries
        .iter()
        .map(|(file, text)| Unit::new(format!("scn:{file}"), move |_seed| run_one(file, text)))
        .collect();
    let outcomes = run_fleet(units, opts.jobs, opts.seed).into_outputs()?;

    let mut t = TextTable::new(vec![
        "scenario", "topology", "epochs", "services", "asserts", "digest", "result",
    ]);
    for ((file, text), o) in entries.iter().zip(&outcomes) {
        let topology = match parse(text).map_err(|e| format!("{file}: {e}"))?.topology {
            Topology::Server { .. } => "server",
            Topology::Cluster { .. } => "cluster",
        };
        t.row(vec![
            o.name.clone(),
            topology.to_string(),
            o.epochs.to_string(),
            o.services.len().to_string(),
            o.assertions.len().to_string(),
            format!("{:016x}", o.digest),
            if o.passed { "PASS" } else { "FAIL" }.to_string(),
        ]);
    }
    writeln!(out, "{t}")?;

    let mut failed = 0usize;
    for o in &outcomes {
        if o.passed {
            continue;
        }
        failed += 1;
        writeln!(out, "{}:", o.name)?;
        for a in &o.assertions {
            writeln!(
                out,
                "  [{}] {} -- {}",
                if a.pass { "ok" } else { "FAIL" },
                a.desc,
                a.detail
            )?;
        }
    }
    writeln!(
        out,
        "{}/{} scenarios passed every assertion.",
        outcomes.len() - failed,
        outcomes.len()
    )?;
    if failed > 0 {
        return Err(format!("{failed} scenario(s) failed their assertions").into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The light end of the corpus, exercised at several fleet widths:
    /// the rendered report must be byte-identical because every scenario
    /// seeds itself.
    #[test]
    fn report_is_jobs_invariant() {
        let light: Vec<(&str, &str)> = corpus()
            .into_iter()
            .filter(|(f, _)| {
                matches!(
                    *f,
                    "steady-colocated.scn" | "service-departure.scn" | "pmc-noise.scn"
                )
            })
            .collect();
        assert_eq!(light.len(), 3);
        let render = |jobs: usize| {
            let units: Vec<Unit<'_, ScenarioOutcome>> = light
                .iter()
                .map(|(file, text)| {
                    Unit::new(format!("scn:{file}"), move |_seed| run_one(file, text))
                })
                .collect();
            let outcomes = run_fleet(units, jobs, 42).into_outputs().unwrap();
            let mut s = String::new();
            for o in &outcomes {
                let _ = writeln!(s, "{} {:016x} {}", o.name, o.digest, o.passed);
                assert!(o.passed, "{}: {:?}", o.name, o.assertions);
            }
            s
        };
        let one = render(1);
        assert_eq!(one, render(2));
        assert_eq!(one, render(4));
    }
}
