//! Randomized round-trip and rejection properties of the scenario grammar.
//!
//! The round-trip test generates hundreds of random-but-valid scenario
//! texts from a seeded RNG and checks the canonical-form fixed point the
//! DSL promises: `emit(parse(emit(parse(text)))) == emit(parse(text))`.
//! The rejection tests pin the typed error each class of malformed input
//! must produce.

use std::fmt::Write as _;
use twig_cluster::{ClusterFaultConfig, FedFaultConfig};
use twig_scenario::{emit, parse, FederateSection, ScenarioError};
use twig_sim::{FaultConfig, TimingFaultConfig};
use twig_stats::fields::{Kind, Row};
use twig_stats::rng::{Rng, Xoshiro256};

const CATALOG: &[&str] = &[
    "masstree",
    "xapian",
    "moses",
    "img-dnn",
    "memcached",
    "web-search",
];

/// Emits one random service block with a random shape and churn plan.
fn push_service(out: &mut String, rng: &mut Xoshiro256, id: usize, epochs: u64, churn: bool) {
    writeln!(out, "service \"svc-{id}\"").unwrap();
    let template = CATALOG[rng.range_usize(0, CATALOG.len())];
    if rng.next_bool(0.5) {
        writeln!(out, "  spec catalog {template}").unwrap();
    } else {
        let rps = rng.range_usize(100, 3000);
        let qos = rng.range_usize(2, 200);
        writeln!(out, "  spec synthetic {template} {rps} {qos}").unwrap();
    }
    let lo = rng.range_usize(5, 40) as f64 / 100.0;
    let hi = lo + rng.range_usize(5, 40) as f64 / 100.0;
    match rng.range_usize(0, 7) {
        0 => writeln!(out, "  load fixed {lo}").unwrap(),
        1 => {
            let factor = 1.0 + rng.range_usize(5, 80) as f64 / 100.0;
            let period = rng.range_usize(1, 40);
            writeln!(out, "  load step {lo} {hi} {factor} {period}").unwrap();
        }
        2 => {
            let period = rng.range_usize(4, 200);
            writeln!(out, "  load diurnal {lo} {hi} {period}").unwrap();
        }
        3 => {
            let start = rng.range_usize(0, epochs as usize / 2);
            let dur = rng.range_usize(1, epochs as usize / 2 + 1);
            writeln!(out, "  load ramp {lo} {hi} {start} {dur}").unwrap();
        }
        4 => {
            let start = rng.range_usize(1, epochs as usize);
            let ramp = rng.range_usize(1, 20);
            let hold = rng.range_usize(1, 40);
            writeln!(out, "  load flash_crowd {lo} {hi} {start} {ramp} {hold}").unwrap();
        }
        5 => {
            let period = rng.range_usize(2, 60);
            let duty = rng.range_usize(1, period);
            let phase = rng.range_usize(0, period);
            writeln!(out, "  load burst {lo} {hi} {period} {duty} {phase}").unwrap();
        }
        _ => {
            let dwell = rng.range_usize(1, 10);
            let n = rng.range_usize(2, 10);
            let mut table = String::new();
            for _ in 0..n {
                write!(table, " {}", rng.range_usize(5, 90) as f64 / 100.0).unwrap();
            }
            writeln!(out, "  load replay {dwell}{table}").unwrap();
        }
    }
    if churn {
        // Churn epochs must satisfy arrive < depart <= epochs.
        match rng.range_usize(0, 4) {
            0 => writeln!(out, "  arrive {}", rng.range_usize(1, epochs as usize)).unwrap(),
            1 => writeln!(out, "  depart {}", rng.range_usize(1, epochs as usize + 1)).unwrap(),
            2 => {
                let at = rng.range_usize(1, epochs as usize);
                let t = CATALOG[rng.range_usize(0, CATALOG.len())];
                if rng.next_bool(0.5) {
                    writeln!(out, "  swap {at} catalog {t}").unwrap();
                } else {
                    let rps = rng.range_usize(100, 2000);
                    writeln!(
                        out,
                        "  swap {at} synthetic {t} {rps} {}",
                        rng.range_usize(2, 100)
                    )
                    .unwrap();
                }
            }
            _ => {}
        }
    }
    writeln!(out, "end").unwrap();
    writeln!(out).unwrap();
}

/// Opens a seeded fault section and writes a random record for each row of
/// its field table, each with probability `p`.
fn push_rows<C>(out: &mut String, rng: &mut Xoshiro256, rows: &[Row<C>], p: f64) {
    for row in rows {
        if !rng.next_bool(p) {
            continue;
        }
        write!(out, "  {}", row.key).unwrap();
        for col in row.cols {
            match col.kind {
                Kind::Probability => write!(out, " {}", rng.range_usize(0, 50) as f64 / 100.0),
                Kind::Duration => write!(out, " {}", rng.range_usize(0, 800) as f64 / 4.0),
                Kind::Count => write!(out, " {}", rng.range_usize(1, 6)),
            }
            .unwrap();
        }
        writeln!(out).unwrap();
    }
}

fn open_section(out: &mut String, rng: &mut Xoshiro256, name: &str) {
    writeln!(out, "{name}").unwrap();
    writeln!(out, "  seed {}", rng.range_usize(0, 10_000)).unwrap();
}

fn close_section(out: &mut String) {
    writeln!(out, "end").unwrap();
    writeln!(out).unwrap();
}

/// Emits one random cluster_faults section (cluster scenarios only).
fn push_cluster_faults(out: &mut String, rng: &mut Xoshiro256) {
    open_section(out, rng, "cluster_faults");
    push_rows(out, rng, ClusterFaultConfig::FIELDS, 0.3);
    for _ in 0..rng.range_usize(0, 3) {
        let epoch = rng.range_usize(1, 20);
        let node = rng.range_usize(0, 2);
        match rng.range_usize(0, 6) {
            0 => writeln!(out, "  at {epoch} crash {node}").unwrap(),
            1 => writeln!(out, "  at {epoch} restart {node}").unwrap(),
            2 => writeln!(out, "  at {epoch} drop_heartbeat {node}").unwrap(),
            3 => writeln!(out, "  at {epoch} migrate 0 {node} {}", 1 - node).unwrap(),
            4 => writeln!(out, "  at {epoch} blackout {}", rng.range_usize(1, 6)).unwrap(),
            _ => writeln!(
                out,
                "  at {epoch} partition {node} {}",
                rng.range_usize(1, 6)
            )
            .unwrap(),
        }
    }
    close_section(out);
}

/// Emits one random federate section (cluster scenarios only).
fn push_federate(out: &mut String, rng: &mut Xoshiro256) {
    open_section(out, rng, "federate");
    push_rows(out, rng, FederateSection::KNOBS, 0.4);
    push_rows(out, rng, FedFaultConfig::FIELDS, 0.3);
    for _ in 0..rng.range_usize(0, 4) {
        let round = rng.range_usize(1, 12);
        let node = rng.range_usize(0, 4);
        match rng.range_usize(0, 6) {
            0 => writeln!(out, "  at {round} corrupt {node}").unwrap(),
            1 => writeln!(out, "  at {round} truncate {node}").unwrap(),
            2 => {
                let flavor = ["garbage", "nonfinite", "offset"][rng.range_usize(0, 3)];
                writeln!(out, "  at {round} byzantine {node} {flavor}").unwrap();
            }
            3 => writeln!(
                out,
                "  at {round} straggle {node} {}",
                rng.range_usize(1, 6)
            )
            .unwrap(),
            4 => writeln!(out, "  at {round} drop {node}").unwrap(),
            _ => writeln!(out, "  at {round} poison_merge").unwrap(),
        }
    }
    close_section(out);
}

/// Generates one random, grammatically valid scenario text.
fn random_scenario(rng: &mut Xoshiro256, case: usize) -> String {
    let epochs = rng.range_usize(20, 400) as u64;
    let measure = rng.range_usize(1, epochs as usize + 1) as u64;
    let cluster = rng.next_bool(0.3);
    let mut s = String::new();
    writeln!(s, "scenario \"prop-{case}\"").unwrap();
    writeln!(s, "desc \"randomized case {case}\"").unwrap();
    writeln!(s, "seed {}", rng.range_usize(0, 1 << 20)).unwrap();
    writeln!(s, "epochs {epochs}").unwrap();
    writeln!(s, "measure {measure}").unwrap();
    if !cluster && rng.next_bool(0.3) {
        writeln!(s, "warmup {}", rng.range_usize(1, 50)).unwrap();
    }
    writeln!(s).unwrap();

    if cluster {
        writeln!(s, "cluster").unwrap();
        writeln!(s, "  replication {}", rng.range_usize(1, 3)).unwrap();
        writeln!(s, "  suspect_after {}", rng.range_usize(1, 5)).unwrap();
        for _ in 0..rng.range_usize(2, 5) {
            let cores = rng.range_usize(4, 48);
            let min = rng.range_usize(800, 1500);
            let step = rng.range_usize(50, 200);
            let levels = rng.range_usize(2, 10);
            writeln!(s, "  node {cores} {min} {step} {levels}").unwrap();
        }
        writeln!(s, "end").unwrap();
    } else {
        writeln!(s, "server").unwrap();
        writeln!(s, "  cores {}", rng.range_usize(2, 64)).unwrap();
        writeln!(
            s,
            "  dvfs {} {} {}",
            rng.range_usize(800, 1500),
            rng.range_usize(50, 200),
            rng.range_usize(2, 10)
        )
        .unwrap();
        writeln!(s, "end").unwrap();
    }
    writeln!(s).unwrap();

    for i in 0..rng.range_usize(1, 5) {
        push_service(&mut s, rng, i, epochs, !cluster);
    }

    let federate = cluster && rng.next_bool(0.5);
    if federate {
        push_federate(&mut s, rng);
    }

    if cluster && rng.next_bool(0.4) {
        push_cluster_faults(&mut s, rng);
    }
    if !cluster && rng.next_bool(0.4) {
        open_section(&mut s, rng, "faults");
        push_rows(&mut s, rng, FaultConfig::FIELDS, 0.4);
        close_section(&mut s);
    }
    if !cluster && rng.next_bool(0.3) {
        open_section(&mut s, rng, "timing");
        push_rows(&mut s, rng, TimingFaultConfig::FIELDS, 0.4);
        close_section(&mut s);
    }

    writeln!(s, "assert qos_floor all {}", rng.range_usize(0, 100)).unwrap();
    if rng.next_bool(0.5) {
        writeln!(
            s,
            "assert drop_cap {}",
            rng.range_usize(0, 100) as f64 / 100.0
        )
        .unwrap();
    }
    if rng.next_bool(0.3) {
        writeln!(s, "assert deterministic").unwrap();
    }
    if cluster && rng.next_bool(0.5) {
        writeln!(s, "assert conserved").unwrap();
    }
    if federate {
        if rng.next_bool(0.6) {
            writeln!(s, "assert fed_rounds {}", rng.range_usize(1, 5)).unwrap();
        }
        if rng.next_bool(0.4) {
            writeln!(s, "assert fed_screened {}", rng.range_usize(1, 5)).unwrap();
        }
    }
    s
}

#[test]
fn randomized_round_trip_reaches_emit_fixed_point() {
    let mut rng = Xoshiro256::seed_from_u64(0x5ca1ab1e);
    let mut accepted = 0usize;
    for case in 0..400 {
        let text = random_scenario(&mut rng, case);
        // Some random combinations are semantically invalid (e.g. a churn
        // window the validator rejects); those must error, never panic.
        let Ok(parsed) = parse(&text) else { continue };
        accepted += 1;
        let canon = emit(&parsed);
        let reparsed = parse(&canon).unwrap_or_else(|e| {
            panic!("case {case}: canonical form failed to re-parse: {e}\n{canon}")
        });
        assert_eq!(
            emit(&reparsed),
            canon,
            "case {case}: emit is not a fixed point"
        );
        assert_eq!(
            reparsed, parsed,
            "case {case}: canonical round-trip changed the model"
        );
    }
    // The generator is tuned so the vast majority of cases are valid.
    assert!(
        accepted >= 300,
        "only {accepted}/400 random scenarios parsed"
    );
}

/// A minimal valid scenario used as the base for the rejection tests.
const BASE: &str = "\
scenario \"rejection-base\"
desc \"base\"
seed 1
epochs 50
measure 10

server
  cores 18
  dvfs 1200 100 9
end

service \"masstree\"
  spec catalog masstree
  load fixed 0.3
end

assert qos_floor all 10
";

#[test]
fn base_scenario_is_valid() {
    parse(BASE).unwrap();
}

#[test]
fn unknown_key_is_rejected_with_line() {
    let text = BASE.replace("seed 1", "seed 1\nfrobnicate 3");
    match parse(&text) {
        Err(ScenarioError::UnknownKey { line, key }) => {
            assert_eq!(line, 4);
            assert_eq!(key, "frobnicate");
        }
        other => panic!("expected UnknownKey, got {other:?}"),
    }
}

#[test]
fn out_of_range_load_fraction_is_rejected() {
    let text = BASE.replace("load fixed 0.3", "load fixed 1.7");
    match parse(&text) {
        Err(ScenarioError::Parse { line, .. }) => assert_eq!(line, 14),
        other => panic!("expected Parse error, got {other:?}"),
    }
}

#[test]
fn duplicate_service_id_is_rejected() {
    let dup = "\nservice \"masstree\"\n  spec catalog moses\n  load fixed 0.2\nend\n";
    let text = BASE.replace("\nassert", &format!("{dup}\nassert"));
    match parse(&text) {
        Err(ScenarioError::Invalid { detail }) => {
            assert!(detail.contains("duplicate service id"), "detail: {detail}")
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
}

#[test]
fn duplicate_scalar_key_is_rejected() {
    let text = BASE.replace("seed 1", "seed 1\nseed 2");
    match parse(&text) {
        Err(ScenarioError::Duplicate { key, .. }) => assert_eq!(key, "seed"),
        other => panic!("expected Duplicate, got {other:?}"),
    }
}

#[test]
fn truncated_input_is_rejected() {
    let text = BASE.replace(
        "  load fixed 0.3\nend\n\nassert qos_floor all 10\n",
        "  load fixed 0.3\n",
    );
    match parse(&text) {
        Err(ScenarioError::Truncated { detail }) => {
            assert!(detail.contains("service"), "detail: {detail}")
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
}

/// A minimal valid cluster scenario with a federate section, used as the
/// base for the federate rejection tests.
const FED_BASE: &str = "\
scenario \"fed-rejection-base\"
desc \"base\"
seed 1
epochs 50
measure 10

cluster
  replication 2
  suspect_after 2
  node 18 1200 100 9
  node 18 1200 100 9
end

service \"masstree\"
  spec catalog masstree
  load fixed 0.3
end

federate
  seed 7
end

assert conserved
";

#[test]
fn fed_base_scenario_is_valid() {
    parse(FED_BASE).unwrap();
}

#[test]
fn unknown_federate_key_is_rejected() {
    let text = FED_BASE.replace("  seed 7", "  seed 7\n  gossip_fanout 3");
    match parse(&text) {
        Err(ScenarioError::UnknownKey { key, .. }) => assert_eq!(key, "gossip_fanout"),
        other => panic!("expected UnknownKey, got {other:?}"),
    }
}

#[test]
fn unknown_byzantine_flavor_is_rejected() {
    let text = FED_BASE.replace("  seed 7", "  seed 7\n  at 1 byzantine 0 sneaky");
    match parse(&text) {
        Err(ScenarioError::Parse { detail, .. }) => {
            assert!(detail.contains("sneaky"), "detail: {detail}")
        }
        other => panic!("expected Parse error, got {other:?}"),
    }
}

#[test]
fn federate_section_without_seed_is_rejected() {
    let text = FED_BASE.replace("  seed 7\n", "  period 5\n");
    match parse(&text) {
        Err(ScenarioError::Truncated { detail }) => {
            assert!(detail.contains("seed"), "detail: {detail}")
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn fed_assertion_without_federate_section_is_rejected() {
    let text = FED_BASE
        .replace("federate\n  seed 7\nend\n\n", "")
        .replace("assert conserved", "assert fed_rounds 2");
    match parse(&text) {
        Err(ScenarioError::Invalid { detail }) => {
            assert!(detail.contains("federate"), "detail: {detail}")
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
}

#[test]
fn federate_on_single_server_is_rejected() {
    let text = BASE.replace(
        "\nassert qos_floor all 10",
        "\nfederate\n  seed 7\nend\n\nassert qos_floor all 10",
    );
    match parse(&text) {
        Err(ScenarioError::Invalid { detail }) => {
            assert!(detail.contains("federate"), "detail: {detail}")
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
}

#[test]
fn missing_assertions_are_rejected() {
    let text = BASE.replace("assert qos_floor all 10\n", "");
    match parse(&text) {
        Err(ScenarioError::Invalid { detail }) => {
            assert!(detail.contains("assert"), "detail: {detail}")
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
}
