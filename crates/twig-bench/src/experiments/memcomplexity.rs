//! Section V-B1, "Memory Complexity Impact" — Hipster's tabular
//! representation vs Twig's function approximator at D = 3 action
//! dimensions of N = 30 actions each.
//!
//! Two accountings are printed (see `twig_rl::memory` for why): the paper's
//! combinatorial-explosion scenario — a tabular manager whose *state* is 11
//! quantised counters — which lands far beyond TB scale, and the plain
//! load-bucket Hipster table for reference. Twig's network stays under 5 MB
//! in both framings, as the paper claims. Two more tables say what the
//! paper's figure leaves out: the replay buffer, and what a running learner
//! holds around its parameters, and where (`MaBdq::learner_memory`).

use crate::{ExpError, Options, TextTable};
use std::fmt::Write as _;
use twig_rl::memory::{
    bdq_parameter_count, replay_record_bytes, table_bytes, table_entries,
    table_entries_state_counters,
};
use twig_rl::{MaBdq, MaBdqConfig};

fn human(bytes: u128) -> String {
    const UNITS: [&str; 7] = ["B", "KB", "MB", "GB", "TB", "PB", "EB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    format!("{v:.1} {}", UNITS[unit])
}

/// Regenerates the memory-complexity comparison, appending to `out`.
///
/// # Errors
///
/// Never fails; the signature matches the other experiments.
pub fn run_to(out: &mut String, _opts: &Options) -> Result<(), ExpError> {
    writeln!(
        out,
        "Section V-B1: memory complexity at D action dimensions, N = 30 actions each"
    )?;
    writeln!(
        out,
        "(paper scenario: 25 state buckets; Twig net 512/256 trunk, 128-unit heads)\n"
    )?;

    let mut t = TextTable::new(vec![
        "D",
        "Hipster (load-bucket state)",
        "Hipster (11 quantised PMCs)",
        "Twig BDQ (online+target)",
    ]);
    for dims in 1..=4usize {
        let actions = vec![30u128; dims];
        let plain = table_bytes(table_entries(25, &actions));
        let counters = table_bytes(table_entries_state_counters(25, 11, &actions));
        let branches = vec![30usize; dims];
        let twig = 2 * 4 * bdq_parameter_count(11, 1, &[512, 256], 128, &branches);
        t.row(vec![
            dims.to_string(),
            human(plain),
            human(counters),
            human(twig as u128),
        ]);
    }
    writeln!(out, "{t}")?;
    writeln!(
        out,
        "Twig grows linearly with action dimensions and stays under 5 MB (paper claim);"
    )?;
    writeln!(
        out,
        "a tabular manager over the same 11-counter state explodes combinatorially."
    )?;

    // What the learner holds besides the network: its replay buffer, which
    // costs what it contains (the paper sizes it at 10^6 transitions).
    writeln!(
        out,
        "\nReplay buffer of the same agent (11 counters, a reward, D actions, a link; the next\nstate is the following record's state and is not stored twice):\n"
    )?;
    let mut t = TextTable::new(vec![
        "D",
        "record",
        "+ priority tree",
        "at 10^4 transitions",
        "at 10^6 (paper's size)",
    ]);
    for dims in 1..=4usize {
        let record = replay_record_bytes(1, 11, dims);
        // Two 8-byte tree nodes per leaf, leaves rounded up to a power of two.
        let held = |n: usize| (n * record + 16 * n.next_power_of_two()) as u128;
        t.row(vec![
            dims.to_string(),
            format!("{record} B"),
            "16-32 B".to_string(),
            human(held(10_000)),
            human(held(1_000_000)),
        ]);
    }
    writeln!(out, "{t}")?;
    writeln!(
        out,
        "The buffer grows with the transitions stored, not with its configured capacity.\nA transition whose follower does not start where it ended (an epoch was dropped in\nbetween) keeps its next state in a side table: + 44 B for that record."
    )?;

    // And what a learner that is running holds around those parameters.
    writeln!(
        out,
        "\nWhat a running learner holds besides the buffer (measured: {WARM_STEPS} train steps and decides,\nquarantine off; 18 x 9 actions, batch 64):\n"
    )?;
    let mut t = TextTable::new(vec![
        "architecture",
        "K",
        "parameters (online+target)",
        "networks",
        "optimiser",
        "train step",
        "decide",
        "learner holds",
        "ratio",
    ]);
    let fast = [1, 2, 24].map(|agents| MaBdqConfig {
        agents,
        ..MaBdqConfig::default()
    });
    let paper = ("512/256, 128 (paper)", MaBdqConfig::paper());
    for (name, config) in std::iter::once(paper).chain(fast.map(|c| ("96/64, 48 (fast)", c))) {
        let agents = config.agents;
        let learner = warm_learner(config)?;
        let (params, memory) = (learner.memory_bytes(), learner.learner_memory());
        let held = memory.total();
        let parts = [
            params,
            memory.networks,
            memory.optimiser,
            memory.step,
            memory.decide,
            held,
        ];
        let mut row = vec![name.to_string(), agents.to_string()];
        row.extend(parts.map(|bytes| human(bytes as u128)));
        row.push(format!("{:.1}x", held as f64 / params as f64));
        t.row(row);
    }
    writeln!(out, "{t}")?;
    writeln!(
        out,
        "The paper's figure is the parameters. A learner also holds their gradients and two Adam\nmoments (online network only: five parameter-sized arrays in all) and the working memory\nof a train step, which its heads share and which evaluates the next states one agent at\na time: it grows with K only where the joint state does (the K x 11 input rows of a batch\nand the trunk layer that reads them), not with the number of heads."
    )?;
    Ok(())
}

/// Train steps a learner takes before its footprint is read: the first sizes
/// every buffer, the rest show that nothing grows.
const WARM_STEPS: usize = 3;

/// A learner that has observed a batch, trained and decided, so that every
/// buffer it will ever hold exists.
fn warm_learner(config: MaBdqConfig) -> Result<MaBdq, ExpError> {
    let (agents, batch) = (config.agents, config.batch_size);
    let mut learner = MaBdq::new(config)?;
    let state = vec![vec![0.5f32; 11]; agents];
    let (actions, rewards) = (vec![vec![0usize, 0]; agents], vec![0.0f32; agents]);
    for _ in 0..batch {
        learner.observe_parts(&state, &actions, &rewards, &state)?;
    }
    for _ in 0..WARM_STEPS {
        learner.train_step()?;
        learner.select_actions(&state, 0.0)?;
    }
    Ok(learner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_formatting() {
        assert_eq!(human(512), "512.0 B");
        assert_eq!(human(2048), "2.0 KB");
        assert!(human(u128::MAX).ends_with("EB"));
    }

    #[test]
    fn runs() {
        run_to(&mut String::new(), &Options::default()).unwrap();
    }
}
