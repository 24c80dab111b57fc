//! The `corpus` workload: every shipped `.scn` file, parsed and run
//! serially by `ScenarioRunner`, pass after pass.
//!
//! One operation is one scenario. It fails when parsing or running errors,
//! an assertion fails, or the outcome digest differs from the one recorded
//! in `results/scenario_report.txt` of the tree the benchmark was built
//! from. Scenarios seed themselves, so `--seed` does not alter this
//! workload.

use crate::trace::SpanLog;
use crate::window::Window;
use crate::BenchError;
use std::collections::BTreeMap;
use twig_scenario::{parse, ScenarioOutcome, ScenarioRunner, Topology};

/// The committed scenario report the digests are checked against.
const REFERENCE_REPORT: &str = include_str!("../../results/scenario_report.txt");

/// The scenarios a smoke run keeps: one plain server, one cluster, one
/// platform scenario.
const SMOKE_FILES: [&str; 3] = [
    "steady-colocated.scn",
    "cluster-steady.scn",
    "platform-steady.scn",
];

/// One corpus entry, validated in set-up.
#[derive(Debug, Clone)]
pub struct Entry {
    /// File name under `scenarios/`.
    pub file: &'static str,
    /// The scenario text.
    pub text: &'static str,
    /// Whether the scenario runs on the cluster stack.
    pub cluster: bool,
    /// Digest recorded for the scenario in the committed report.
    pub reference_digest: u64,
}

/// The corpus, ready to run.
#[derive(Debug, Clone)]
pub struct CorpusRig {
    /// Entries in file order.
    pub entries: Vec<Entry>,
}

/// One scenario run of one pass.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Index into [`CorpusRig::entries`].
    pub entry: usize,
    /// Wall time of parse + run, nanoseconds.
    pub wall_ns: u64,
    /// Epochs the scenario declares.
    pub epochs: u64,
}

/// What the timed passes produced.
#[derive(Debug, Default)]
pub struct CorpusWindow {
    /// Operation timestamps and failure tally (one operation per scenario).
    pub window: Window,
    /// Every scenario run, pass by pass.
    pub runs: Vec<ScenarioRun>,
    /// Complete passes.
    pub passes: usize,
    /// Scenarios of the last pass that passed every assertion.
    pub passed: u64,
    /// Scenarios of the last pass whose digest matched the reference.
    pub digest_match: u64,
    /// Deadline misses the scenarios' schedulers counted in the last pass.
    pub deadline_misses: u64,
    /// Σ epochs of the server-topology scenarios of the last pass.
    pub server_epochs: u64,
}

impl CorpusWindow {
    /// Per scenario, in entry order: its declared epochs and its median
    /// wall time over the passes, nanoseconds. A neighbour's burst that
    /// slows one pass of a scenario does not move its median.
    pub fn median_walls(&self) -> Vec<(u64, f64)> {
        let mut by_entry: BTreeMap<usize, (u64, Vec<f64>)> = BTreeMap::new();
        for run in &self.runs {
            let slot = by_entry
                .entry(run.entry)
                .or_insert((run.epochs, Vec::new()));
            slot.1.push(run.wall_ns as f64);
        }
        by_entry
            .into_values()
            .map(|(epochs, walls)| (epochs, crate::stats::median(&walls)))
            .collect()
    }

    /// Scenario epochs per host second of one pass made of every
    /// scenario's median wall time.
    pub fn epochs_per_s(&self) -> f64 {
        let (epochs, wall_ns) = self
            .median_walls()
            .into_iter()
            .fold((0u64, 0.0), |(e, w), (epochs, wall)| (e + epochs, w + wall));
        if wall_ns > 0.0 {
            epochs as f64 / (wall_ns / 1e9)
        } else {
            0.0
        }
    }
}

/// Scenario name → digest, read from the committed report's table.
pub fn reference_digests(report: &str) -> BTreeMap<String, u64> {
    report
        .lines()
        .filter_map(|line| {
            let cols: Vec<&str> = line.split_whitespace().collect();
            let digest = cols.get(5).filter(|d| d.len() == 16)?;
            let digest = u64::from_str_radix(digest, 16).ok()?;
            Some((cols[0].to_string(), digest))
        })
        .collect()
}

/// Loads the corpus, compiles every scenario onto a runner once (so a
/// malformed file fails set-up, not the timed window) and pairs each with
/// its reference digest.
///
/// # Errors
///
/// Returns an error for a scenario that does not parse or validate, or
/// that the committed report does not list.
pub fn setup(smoke: bool) -> Result<CorpusRig, BenchError> {
    let digests = reference_digests(REFERENCE_REPORT);
    let mut entries = Vec::new();
    for (file, text) in twig_scenario::corpus() {
        if smoke && !SMOKE_FILES.contains(&file) {
            continue;
        }
        let scenario = parse(text).map_err(|e| format!("{file}: {e}"))?;
        let cluster = matches!(scenario.topology, Topology::Cluster { .. });
        let name = scenario.name.clone();
        ScenarioRunner::new(scenario).map_err(|e| format!("{file}: {e}"))?;
        let reference_digest = *digests.get(&name).ok_or_else(|| {
            format!("{file}: no digest for {name} in results/scenario_report.txt")
        })?;
        entries.push(Entry {
            file,
            text,
            cluster,
            reference_digest,
        });
    }
    if entries.is_empty() {
        return Err("the scenario corpus is empty".into());
    }
    Ok(CorpusRig { entries })
}

/// Parses and runs one entry under `scenario.parse` / `scenario.run` spans.
fn run_entry(entry: &Entry, op: u64, log: &mut SpanLog) -> Result<ScenarioOutcome, BenchError> {
    let span = log.open("scenario.parse", op);
    let parsed = parse(entry.text);
    log.close(span);
    let runner = ScenarioRunner::new(parsed?)?;
    let span = log.open("scenario.run", op);
    let outcome = runner.run();
    log.close(span);
    Ok(outcome?)
}

/// Why an outcome fails the operation, if it does.
pub fn outcome_failure(entry: &Entry, outcome: &ScenarioOutcome) -> Option<String> {
    if let Some(a) = outcome.assertions.iter().find(|a| !a.pass) {
        return Some(format!(
            "{}: assertion failed: {} ({})",
            entry.file, a.desc, a.detail
        ));
    }
    (outcome.digest != entry.reference_digest).then(|| {
        format!(
            "{}: digest {:016x} differs from the committed {:016x}",
            entry.file, outcome.digest, entry.reference_digest
        )
    })
}

/// Runs whole passes over the corpus until `seconds` have passed.
pub fn run_window(rig: &CorpusRig, seconds: f64, log: &mut SpanLog) -> CorpusWindow {
    let mut out = CorpusWindow {
        window: Window::open(log, 4 * rig.entries.len(), rig.entries.len() as u64),
        ..CorpusWindow::default()
    };
    let deadline = out.window.start_ns + (seconds * 1e9) as u64;
    let mut last = Vec::with_capacity(rig.entries.len());
    let mut op = 0u64;
    loop {
        last.clear();
        for (index, entry) in rig.entries.iter().enumerate() {
            let begin = log.now_ns();
            let whole = log.open("epoch", op);
            let result = run_entry(entry, op, log);
            log.close(whole);
            let now = out.window.close_operation(log);
            op += 1;
            match result {
                Ok(outcome) => {
                    if let Some(why) = outcome_failure(entry, &outcome) {
                        out.window.fail(why);
                    }
                    out.runs.push(ScenarioRun {
                        entry: index,
                        wall_ns: now - begin,
                        epochs: outcome.epochs,
                    });
                    last.push((entry, outcome));
                }
                Err(e) => out.window.fail(format!("{}: {e}", entry.file)),
            }
        }
        out.passes += 1;
        if out.window.failed > 0 || log.now_ns() >= deadline {
            break;
        }
    }

    // Simulated outputs repeat exactly pass after pass: tally the last one.
    for (entry, outcome) in &last {
        out.passed += u64::from(outcome_failure(entry, outcome).is_none());
        out.digest_match += u64::from(outcome.digest == entry.reference_digest);
        out.deadline_misses += outcome.deadline_misses;
        if !entry.cluster {
            out.server_epochs += outcome.epochs;
            out.window.energy_j += outcome.energy_j;
            for svc in &outcome.services {
                out.window.qos_met += svc.qos_met_epochs;
                out.window.qos_total += svc.measured_epochs;
                out.window.requests += svc.completed;
            }
        }
    }
    out.window = out.window.finish();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_report_lists_every_shipped_scenario() {
        let digests = reference_digests(REFERENCE_REPORT);
        assert_eq!(digests.len(), twig_scenario::corpus().len());
        assert_eq!(
            digests.get("steady-colocated"),
            Some(&0x8960_86a7_829d_9f35)
        );
    }

    #[test]
    fn only_table_rows_carry_digests() {
        let report = "header line with more than six words in it\nname server 350 2 3 00000000000000ff PASS\n\n29/29 scenarios passed every assertion.\n";
        let digests = reference_digests(report);
        assert_eq!(digests.len(), 1);
        assert_eq!(digests["name"], 255);
    }

    #[test]
    fn the_corpus_rate_uses_each_scenarios_median_wall() {
        let run = |entry, wall_ns, epochs| ScenarioRun {
            entry,
            wall_ns,
            epochs,
        };
        let window = CorpusWindow {
            // Three passes of two scenarios; one pass of each was disturbed.
            runs: vec![
                run(0, 1_000_000, 100),
                run(1, 9_000_000, 300),
                run(0, 1_000_000, 100),
                run(1, 3_000_000, 300),
                run(0, 5_000_000, 100),
                run(1, 3_000_000, 300),
            ],
            passes: 3,
            ..CorpusWindow::default()
        };
        assert_eq!(window.median_walls(), vec![(100, 1e6), (300, 3e6)]);
        assert_eq!(window.epochs_per_s(), 400.0 / 4e-3);
        assert_eq!(CorpusWindow::default().epochs_per_s(), 0.0);
    }

    #[test]
    fn smoke_set_up_keeps_one_scenario_per_stack() {
        let rig = setup(true).unwrap();
        assert_eq!(rig.entries.len(), SMOKE_FILES.len());
        assert_eq!(rig.entries.iter().filter(|e| e.cluster).count(), 1);
    }
}
