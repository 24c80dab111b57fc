//! Section V-B1, "Memory Complexity Impact" — Hipster's tabular
//! representation vs Twig's function approximator at D = 3 action
//! dimensions of N = 30 actions each.
//!
//! Two accountings are printed (see `twig_rl::memory` for why): the paper's
//! combinatorial-explosion scenario — a tabular manager whose *state* is 11
//! quantised counters — which lands far beyond TB scale, and the plain
//! load-bucket Hipster table for reference. Twig's network stays under 5 MB
//! in both framings, as the paper claims.

use crate::{ExpError, Options, TextTable};
use std::fmt::Write as _;
use twig_rl::memory::{
    bdq_parameter_count, replay_record_bytes, table_bytes, table_entries,
    table_entries_state_counters,
};

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
    Ok(())
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
