//! Every `Count` column the scenario grammar exposes, at `u64::MAX`.
//!
//! A `Count` admits any `u64` (`Kind::Count`), so a `.scn` file may spell a
//! duration of 2⁶⁴ − 1 epochs, and the stack must read it as "never within
//! this run" rather than overflow. For each `Count` column of the field
//! tables the grammar reads — the server `faults`, `cluster_faults` and
//! `federate` records and the `federate` knobs — this builds a minimal
//! scenario with that column at `u64::MAX` (its paired rate at 1.0 where the
//! record has one) and runs it. The run must complete with finite
//! observables and, on a cluster, balanced request books. Where a wrapped
//! sum would turn "never" into "at once", the test also checks the
//! observable that would show it: a crashed node with an endless restart
//! delay stays down, and a round whose payloads all straggle forever never
//! commits.

use twig_cluster::{ClusterFaultConfig, FedFaultConfig};
use twig_scenario::{parse, FederateSection, ScenarioOutcome, ScenarioRunner};
use twig_sim::FaultConfig;
use twig_stats::fields::{Kind, Row};

const NODES: usize = 3;

/// The section body line of `row` with the column `name` at `u64::MAX`
/// and every other column (the record's rate) at 1.
fn record<C>(row: &Row<C>, name: &str) -> String {
    let mut line = format!("  {}", row.key);
    for col in row.cols {
        let value = if col.name == name {
            u64::MAX.to_string()
        } else {
            "1".to_string()
        };
        line.push(' ');
        line.push_str(&value);
    }
    line
}

/// Every `Count` column of `rows`, as `(row, column name)`.
fn counts<C>(rows: &'static [Row<C>]) -> Vec<(&'static Row<C>, &'static str)> {
    rows.iter()
        .flat_map(|row| row.cols.iter().map(move |col| (row, col)))
        .filter(|(_, col)| col.kind == Kind::Count)
        .map(|(row, col)| (row, col.name))
        .collect()
}

/// Parses and runs `text`, asserting the run completed with finite
/// observables.
fn run(what: &str, text: &str) -> ScenarioOutcome {
    let scenario = parse(text).unwrap_or_else(|e| panic!("{what}: {e}\n{text}"));
    let outcome = ScenarioRunner::new(scenario)
        .unwrap_or_else(|e| panic!("{what}: {e}"))
        .run()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(outcome.epochs, 24, "{what}");
    assert!(outcome.mean_power_w.is_finite(), "{what}");
    assert!(outcome.energy_j.is_finite(), "{what}");
    for service in &outcome.services {
        assert!(service.mean_p99_ms.is_finite(), "{what}: {service:?}");
    }
    outcome
}

fn server_scenario(faults: &str) -> String {
    format!(
        "scenario \"extreme-server\"
seed 3
epochs 24
measure 8

server
  cores 8
  dvfs 1200 200 4
end

service \"masstree\"
  spec catalog masstree
  load fixed 0.3
end

faults
  seed 5
{faults}
end

assert drop_cap 1
"
    )
}

fn cluster_scenario(sections: &str) -> String {
    let nodes = "  node 8 1200 200 4\n".repeat(NODES);
    format!(
        "scenario \"extreme-cluster\"
seed 3
epochs 24
measure 8

cluster
  replication 2
  suspect_after 2
{nodes}end

service \"masstree\"
  spec catalog masstree
  load fixed 0.3
end

service \"xapian\"
  spec catalog xapian
  load fixed 0.3
end

{sections}
assert conserved
"
    )
}

/// A `federate` section with `lines`, over a two-epoch period and a quorum
/// of one unless `lines` sets them.
fn federate_section(lines: &str) -> String {
    let mut body = String::new();
    for (key, value) in [("period", 2), ("quorum", 1)] {
        if !lines.contains(&format!("  {key} ")) {
            body.push_str(&format!("  {key} {value}\n"));
        }
    }
    format!("federate\n  seed 9\n{body}{lines}\nend\n")
}

fn cluster(outcome: &ScenarioOutcome, what: &str) -> twig_scenario::ClusterOutcome {
    let cluster = outcome.cluster.clone().expect("cluster outcome");
    assert!(cluster.conserved, "{what}: {cluster:?}");
    assert!(outcome.passed, "{what}: {:?}", outcome.assertions);
    cluster
}

#[test]
fn server_fault_counts_at_u64_max_run_clean() {
    let columns = counts(FaultConfig::FIELDS);
    assert!(!columns.is_empty());
    for (row, name) in columns {
        let what = format!("faults {name}");
        let outcome = run(&what, &server_scenario(&record(row, name)));
        assert!(outcome.passed, "{what}: {:?}", outcome.assertions);
    }
}

#[test]
fn cluster_fault_counts_at_u64_max_run_clean() {
    let columns = counts(ClusterFaultConfig::FIELDS);
    assert!(!columns.is_empty());
    for (row, name) in columns {
        let what = format!("cluster_faults {name}");
        let mut lines = record(row, name);
        let restart = name == "restart_after_epochs";
        if restart {
            // An endless restart delay needs a crash to delay.
            lines.push_str("\n  at 4 crash 1");
        }
        let text = cluster_scenario(&format!("cluster_faults\n  seed 7\n{lines}\nend\n"));
        let state = cluster(&run(&what, &text), &what);
        if restart {
            assert_eq!(state.crashes, 1, "{what}: {state:?}");
            assert_eq!(
                state.live_nodes_final,
                NODES - 1,
                "{what}: crashed node restarted"
            );
        }
    }
}

#[test]
fn federate_counts_at_u64_max_run_clean() {
    // The observable first: without stragglers, rounds commit in this run.
    let calm = run("federate calm", &cluster_scenario(&federate_section("")));
    let calm = cluster(&calm, "federate calm");
    assert!(calm.fed_rounds_committed > 0, "{calm:?}");

    let columns: Vec<(String, String)> = counts(FederateSection::KNOBS)
        .into_iter()
        .map(|(row, name)| (name.to_string(), record(row, name)))
        .chain(
            counts(FedFaultConfig::FIELDS)
                .into_iter()
                .map(|(row, name)| (name.to_string(), record(row, name))),
        )
        .collect();
    assert!(columns.len() >= 4, "{columns:?}");
    for (name, line) in columns {
        let what = format!("federate {name}");
        let state = cluster(
            &run(&what, &cluster_scenario(&federate_section(&line))),
            &what,
        );
        if name == "straggle_epochs" {
            assert_eq!(state.fed_rounds_committed, 0, "{what}: a straggler arrived");
        }
    }
}
