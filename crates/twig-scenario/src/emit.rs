//! The canonical `.scn` emitter.
//!
//! There is exactly one canonical text form per scenario: fields in fixed
//! order, two-space indent inside sections, single spaces between tokens,
//! defaults omitted, one blank line between top-level blocks, a trailing
//! newline. [`crate::parse`](fn@crate::parse) accepts a superset (comments, flexible
//! whitespace), so the emitter is a fixed point: for every scenario `s`,
//! `emit(parse(emit(s))) == emit(s)`, and canonically-authored corpus
//! files round-trip byte-identically.

use crate::model::{Assertion, FederateSection, Scenario, ServiceDef, SpecSource, Topology};
use std::fmt::Write as _;
use twig_cluster::{
    ByzantineFlavor, ClusterEvent, ClusterFaultConfig, FedEvent, FedFaultConfig, FedScripted,
    ScriptedEvent,
};
use twig_sim::{FaultConfig, LoadGenerator, TimingFaultConfig};
use twig_stats::fields::Row;

/// Renders the canonical text form of a scenario.
pub fn emit(s: &Scenario) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "scenario {}", quoted(&s.name));
    if !s.desc.is_empty() {
        let _ = writeln!(out, "desc {}", quoted(&s.desc));
    }
    let _ = writeln!(out, "seed {}", s.seed);
    let _ = writeln!(out, "epochs {}", s.epochs);
    let _ = writeln!(out, "measure {}", s.measure);
    if s.warmup != 0 {
        let _ = writeln!(out, "warmup {}", s.warmup);
    }
    if s.segments != 1 {
        let _ = writeln!(out, "segments {}", s.segments);
    }

    emit_topology(&mut out, &s.topology);
    for svc in &s.services {
        emit_service(&mut out, svc);
    }
    if let Some(f) = &s.faults {
        emit_section(&mut out, "faults", f.seed, |out| {
            emit_rows(out, FaultConfig::FIELDS, &f.config);
        });
    }
    if let Some(t) = &s.timing {
        emit_section(&mut out, "timing", t.seed, |out| {
            emit_rows(out, TimingFaultConfig::FIELDS, &t.config);
        });
    }
    if let Some(c) = &s.cluster_faults {
        emit_section(&mut out, "cluster_faults", c.seed, |out| {
            emit_rows(out, ClusterFaultConfig::FIELDS, &c.config);
            for ev in &c.config.scripted {
                emit_cluster_event(out, ev);
            }
        });
    }
    if let Some(f) = &s.federate {
        emit_section(&mut out, "federate", f.seed, |out| {
            emit_rows(out, FederateSection::KNOBS, &f.to_config());
            emit_rows(out, FedFaultConfig::FIELDS, &f.config);
            for ev in &f.config.scripted {
                emit_fed_event(out, ev);
            }
        });
    }

    if !s.asserts.is_empty() {
        out.push('\n');
        for a in &s.asserts {
            emit_assert_line(&mut out, a);
        }
    }
    out
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn emit_topology(out: &mut String, t: &Topology) {
    out.push('\n');
    match t {
        Topology::Server { cores, dvfs } => {
            out.push_str("server\n");
            let _ = writeln!(out, "  cores {cores}");
            let _ = writeln!(out, "  dvfs {} {} {}", dvfs.0, dvfs.1, dvfs.2);
        }
        Topology::Cluster {
            replication,
            suspect_after,
            nodes,
        } => {
            out.push_str("cluster\n");
            let _ = writeln!(out, "  replication {replication}");
            let _ = writeln!(out, "  suspect_after {suspect_after}");
            for n in nodes {
                let _ = writeln!(out, "  node {} {} {} {}", n.0, n.1, n.2, n.3);
            }
        }
    }
    out.push_str("end\n");
}

fn emit_spec_source(src: &SpecSource) -> String {
    match src {
        SpecSource::Catalog { name } => format!("catalog {name}"),
        SpecSource::Synthetic {
            template,
            rps,
            qos_ms,
        } => format!("synthetic {template} {rps} {qos_ms}"),
    }
}

fn emit_service(out: &mut String, s: &ServiceDef) {
    out.push('\n');
    let _ = writeln!(out, "service {}", quoted(&s.id));
    let _ = writeln!(out, "  spec {}", emit_spec_source(&s.spec));
    let _ = writeln!(out, "  load {}", emit_load(&s.load));
    if s.arrive != 0 {
        let _ = writeln!(out, "  arrive {}", s.arrive);
    }
    if let Some(d) = s.depart {
        let _ = writeln!(out, "  depart {d}");
    }
    if let Some((e, src)) = &s.swap {
        let _ = writeln!(out, "  swap {e} {}", emit_spec_source(src));
    }
    out.push_str("end\n");
}

fn emit_load(g: &LoadGenerator) -> String {
    match g {
        LoadGenerator::Fixed { fraction } => format!("fixed {fraction}"),
        LoadGenerator::Step {
            min,
            max,
            change_factor,
            period_s,
        } => format!("step {min} {max} {change_factor} {period_s}"),
        LoadGenerator::Diurnal { min, max, period_s } => {
            format!("diurnal {min} {max} {period_s}")
        }
        LoadGenerator::Ramp {
            from,
            to,
            start_s,
            duration_s,
        } => format!("ramp {from} {to} {start_s} {duration_s}"),
        LoadGenerator::FlashCrowd {
            base,
            peak,
            start_s,
            ramp_s,
            hold_s,
        } => format!("flash_crowd {base} {peak} {start_s} {ramp_s} {hold_s}"),
        LoadGenerator::Burst {
            base,
            peak,
            period_s,
            duty_s,
            phase_s,
        } => format!("burst {base} {peak} {period_s} {duty_s} {phase_s}"),
        LoadGenerator::Replay { table, dwell_s } => {
            let mut s = format!("replay {dwell_s}");
            for f in table {
                let _ = write!(s, " {f}");
            }
            s
        }
    }
}

/// Writes one seeded fault section: the section word, its `seed`, the
/// records `body` writes, `end`.
fn emit_section(out: &mut String, name: &str, seed: u64, body: impl FnOnce(&mut String)) {
    let _ = writeln!(out, "\n{name}\n  seed {seed}");
    body(out);
    out.push_str("end\n");
}

/// Writes one record per row of the field table that differs from the
/// default configuration, in table order.
pub(crate) fn emit_rows<C: Default>(out: &mut String, rows: &[Row<C>], config: &C) {
    let default = C::default();
    for row in rows {
        if row
            .cols
            .iter()
            .any(|col| (col.get)(config) != (col.get)(&default))
        {
            let _ = write!(out, "  {}", row.key);
            for col in row.cols {
                let _ = write!(out, " {}", (col.get)(config));
            }
            out.push('\n');
        }
    }
}

fn emit_cluster_event(out: &mut String, ev: &ScriptedEvent) {
    let _ = match &ev.event {
        ClusterEvent::Crash { node } => writeln!(out, "  at {} crash {node}", ev.epoch),
        ClusterEvent::Restart { node } => writeln!(out, "  at {} restart {node}", ev.epoch),
        ClusterEvent::DropHeartbeat { node } => {
            writeln!(out, "  at {} drop_heartbeat {node}", ev.epoch)
        }
        ClusterEvent::Migrate { service, from, to } => {
            writeln!(out, "  at {} migrate {service} {from} {to}", ev.epoch)
        }
        ClusterEvent::Blackout { epochs } => {
            writeln!(out, "  at {} blackout {epochs}", ev.epoch)
        }
        ClusterEvent::Partition { node, epochs } => {
            writeln!(out, "  at {} partition {node} {epochs}", ev.epoch)
        }
    };
}

fn emit_fed_event(out: &mut String, ev: &FedScripted) {
    let _ = match &ev.event {
        FedEvent::Corrupt { node } => writeln!(out, "  at {} corrupt {node}", ev.round),
        FedEvent::Truncate { node } => writeln!(out, "  at {} truncate {node}", ev.round),
        FedEvent::Byzantine { node, flavor } => {
            let word = match flavor {
                ByzantineFlavor::Garbage => "garbage",
                ByzantineFlavor::NonFinite => "nonfinite",
                ByzantineFlavor::Offset => "offset",
            };
            writeln!(out, "  at {} byzantine {node} {word}", ev.round)
        }
        FedEvent::Straggle { node, epochs } => {
            writeln!(out, "  at {} straggle {node} {epochs}", ev.round)
        }
        FedEvent::Drop { node } => writeln!(out, "  at {} drop {node}", ev.round),
        FedEvent::PoisonMerge => writeln!(out, "  at {} poison_merge", ev.round),
    };
}

/// Renders one `assert` line (with trailing newline) in canonical form.
pub(crate) fn emit_assert_line(out: &mut String, a: &Assertion) {
    let _ = match a {
        Assertion::QosFloor { service, pct } => match service {
            Some(id) => writeln!(out, "assert qos_floor {} {pct}", quoted(id)),
            None => writeln!(out, "assert qos_floor all {pct}"),
        },
        Assertion::PowerCap { watts } => writeln!(out, "assert power_cap {watts}"),
        Assertion::DropCap { fraction } => writeln!(out, "assert drop_cap {fraction}"),
        Assertion::MaxShedDepth { depth } => writeln!(out, "assert max_shed_depth {depth}"),
        Assertion::ZeroStaleActuations => writeln!(out, "assert zero_stale_actuations"),
        Assertion::Conserved => writeln!(out, "assert conserved"),
        Assertion::MaxFailover { epochs } => writeln!(out, "assert max_failover {epochs}"),
        Assertion::FedRounds { committed } => writeln!(out, "assert fed_rounds {committed}"),
        Assertion::FedScreened { rejected } => writeln!(out, "assert fed_screened {rejected}"),
        Assertion::Deterministic => writeln!(out, "assert deterministic"),
    };
}
