//! The shipped scenario corpus: every `.scn` file under `scenarios/`,
//! compiled into the crate so the corpus is versioned with the code that
//! runs it. Each file is authored in canonical form (see [`crate::emit`](fn@crate::emit))
//! and round-trips byte-identically through the parser — `scnfmt --check`
//! and the tests below both enforce this.

/// One corpus entry per `.scn` file: `(file_name, text)`.
const FILES: &[(&str, &str)] = &[
    (
        "steady-colocated.scn",
        include_str!("../../../scenarios/steady-colocated.scn"),
    ),
    (
        "step-load.scn",
        include_str!("../../../scenarios/step-load.scn"),
    ),
    (
        "diurnal-cycle.scn",
        include_str!("../../../scenarios/diurnal-cycle.scn"),
    ),
    (
        "ramp-up.scn",
        include_str!("../../../scenarios/ramp-up.scn"),
    ),
    (
        "flash-crowd.scn",
        include_str!("../../../scenarios/flash-crowd.scn"),
    ),
    (
        "correlated-bursts.scn",
        include_str!("../../../scenarios/correlated-bursts.scn"),
    ),
    (
        "anticorrelated-bursts.scn",
        include_str!("../../../scenarios/anticorrelated-bursts.scn"),
    ),
    (
        "trace-replay.scn",
        include_str!("../../../scenarios/trace-replay.scn"),
    ),
    (
        "mixed-shapes.scn",
        include_str!("../../../scenarios/mixed-shapes.scn"),
    ),
    (
        "service-arrival.scn",
        include_str!("../../../scenarios/service-arrival.scn"),
    ),
    (
        "service-departure.scn",
        include_str!("../../../scenarios/service-departure.scn"),
    ),
    (
        "service-swap.scn",
        include_str!("../../../scenarios/service-swap.scn"),
    ),
    (
        "churn-rotation.scn",
        include_str!("../../../scenarios/churn-rotation.scn"),
    ),
    (
        "catalog-dozen.scn",
        include_str!("../../../scenarios/catalog-dozen.scn"),
    ),
    (
        "catalog-two-dozen.scn",
        include_str!("../../../scenarios/catalog-two-dozen.scn"),
    ),
    (
        "pmc-noise.scn",
        include_str!("../../../scenarios/pmc-noise.scn"),
    ),
    (
        "actuation-faults.scn",
        include_str!("../../../scenarios/actuation-faults.scn"),
    ),
    (
        "core-failures.scn",
        include_str!("../../../scenarios/core-failures.scn"),
    ),
    (
        "timing-calm.scn",
        include_str!("../../../scenarios/timing-calm.scn"),
    ),
    (
        "timing-pressure.scn",
        include_str!("../../../scenarios/timing-pressure.scn"),
    ),
    (
        "crash-recovery.scn",
        include_str!("../../../scenarios/crash-recovery.scn"),
    ),
    (
        "cluster-steady.scn",
        include_str!("../../../scenarios/cluster-steady.scn"),
    ),
    (
        "cluster-crash-failover.scn",
        include_str!("../../../scenarios/cluster-crash-failover.scn"),
    ),
    (
        "cluster-demand-ramp.scn",
        include_str!("../../../scenarios/cluster-demand-ramp.scn"),
    ),
    (
        "cluster-federate-calm.scn",
        include_str!("../../../scenarios/cluster-federate-calm.scn"),
    ),
    (
        "cluster-federate-byzantine.scn",
        include_str!("../../../scenarios/cluster-federate-byzantine.scn"),
    ),
    (
        "kitchen-sink.scn",
        include_str!("../../../scenarios/kitchen-sink.scn"),
    ),
    (
        "platform-steady.scn",
        include_str!("../../../scenarios/platform-steady.scn"),
    ),
    (
        "platform-reject-storm.scn",
        include_str!("../../../scenarios/platform-reject-storm.scn"),
    ),
];

/// The shipped corpus, in file order: `(file_name, text)` pairs.
pub fn corpus() -> Vec<(&'static str, &'static str)> {
    FILES.to_vec()
}

#[cfg(test)]
mod tests {
    use super::corpus;
    use crate::{emit, parse, ScenarioRunner};
    use std::collections::BTreeSet;

    #[test]
    fn corpus_is_nonempty_and_uniquely_named() {
        let c = corpus();
        assert!(c.len() >= 20, "corpus has {} scenarios, need 20+", c.len());
        let names: BTreeSet<&str> = c.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), c.len(), "duplicate corpus file names");
        let scn_names: BTreeSet<String> = c
            .iter()
            .map(|(_, t)| parse(t).unwrap().name.clone())
            .collect();
        assert_eq!(scn_names.len(), c.len(), "duplicate scenario names");
    }

    #[test]
    fn every_corpus_file_is_canonical() {
        for (file, text) in corpus() {
            let s = parse(text).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert_eq!(
                emit(&s),
                text,
                "{file} is not canonical — run `scnfmt scenarios/{file}`"
            );
        }
    }

    #[test]
    fn every_corpus_scenario_compiles_onto_a_runner() {
        for (file, text) in corpus() {
            let s = parse(text).unwrap_or_else(|e| panic!("{file}: {e}"));
            ScenarioRunner::new(s).unwrap_or_else(|e| panic!("{file}: {e}"));
        }
    }
}
