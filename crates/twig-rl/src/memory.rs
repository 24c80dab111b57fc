//! Memory-complexity accounting for the Hipster-vs-Twig comparison
//! (Section V-B1 of the paper).
//!
//! The paper's headline: scaling a tabular manager to "three action
//! dimensions (D = 3) and each dimension containing 30 discrete actions
//! (N = 30)" with the load quantised into 25 buckets needs memory "in the
//! order of TBs", while Twig's function approximator stays "under 5 MB".
//!
//! Two views are provided:
//!
//! - [`table_entries`] — the standard joint-action table,
//!   `buckets × Π_d N_d` entries. For D = 3, N = 30 this is 25 × 27 000
//!   entries (≈ 5.4 MB): already large, and it grows *exponentially in D*.
//! - [`table_entries_state_counters`] — the table a counter-driven tabular
//!   manager would need: quantising each of the 11 PMCs into the same 25
//!   buckets multiplies the state space to 25¹¹, which is where the
//!   combinatorial explosion the paper describes (Section II-B) truly
//!   lives. This is the configuration that reaches TB-and-beyond scale.
//!
//! [`bdq_parameter_count`] counts the Twig network's trainable parameters
//! for the same action space, demonstrating the linear-in-branches growth
//! the paper claims.

/// Entries in a dense tabular Q representation with `state_buckets` discrete
/// states and `actions_per_dim` joint action dimensions
/// (`state_buckets × Π N_d`). Saturates at `u128::MAX`.
///
/// # Examples
///
/// ```
/// // Hipster on the paper's platform: 25 load buckets, 18 cores x 9 DVFS.
/// let entries = twig_rl::memory::table_entries(25, &[18, 9]);
/// assert_eq!(entries, 25 * 18 * 9);
/// ```
pub fn table_entries(state_buckets: u128, actions_per_dim: &[u128]) -> u128 {
    actions_per_dim
        .iter()
        .fold(state_buckets, |acc, &n| acc.saturating_mul(n))
}

/// Entries for a tabular manager whose *state* is a vector of `counters`
/// hardware counters, each quantised into `buckets` buckets
/// (`buckets^counters × Π N_d`) — the configuration that explodes
/// combinatorially. Saturates at `u128::MAX`.
///
/// # Examples
///
/// ```
/// // 11 counters x 25 buckets each, 3 action dimensions of 30 actions.
/// let entries = twig_rl::memory::table_entries_state_counters(25, 11, &[30, 30, 30]);
/// assert!(entries > 1u128 << 60); // far beyond TB scale at 8 bytes/entry
/// ```
pub fn table_entries_state_counters(
    buckets: u128,
    counters: u32,
    actions_per_dim: &[u128],
) -> u128 {
    let mut states: u128 = 1;
    for _ in 0..counters {
        states = states.saturating_mul(buckets);
    }
    table_entries(states, actions_per_dim)
}

/// Bytes for `entries` 8-byte Q-values, saturating.
pub fn table_bytes(entries: u128) -> u128 {
    entries.saturating_mul(8)
}

/// Bytes of one transition in [`crate::MaBdq`]'s replay buffer when the
/// transition stored after it starts from its next state (which a control
/// loop's does): a record of `agents × state_dim` state features plus one
/// reward per agent, all `f32`, `agents × branches` action indices as `u16`,
/// and a 4-byte link. The next state is not in the record — it is the
/// following record's state. A transition whose follower starts elsewhere
/// (an epoch was dropped in between) is *unlinked* and adds a row of
/// `4 × agents × state_dim` bytes in a side table for its next state: what
/// storing both states in every record would cost, plus the link, is the
/// worst case. The priority tree adds 16 bytes per transition when its leaf
/// row is full and up to 32 just after it doubled.
///
/// # Examples
///
/// ```
/// // Twig-C on two services: 11 counters, branches (cores, DVFS).
/// assert_eq!(twig_rl::memory::replay_record_bytes(2, 11, 2), 108);
/// ```
pub fn replay_record_bytes(agents: usize, state_dim: usize, branches: usize) -> usize {
    (agents * state_dim + agents) * std::mem::size_of::<f32>()
        + agents * branches * std::mem::size_of::<u16>()
        + std::mem::size_of::<u32>()
}

/// Trainable parameters of a Twig-style (multi-agent) BDQ for the given
/// architecture: trunk `input → hidden[0] → hidden[1] …`, one value head and
/// one advantage head per branch, each with a single hidden layer of
/// `head_hidden` units. Mirrors [`crate::MaBdq`]'s construction.
///
/// # Examples
///
/// ```
/// // Twig-S with the paper's architecture: 11 counters, branches 18 and 9.
/// let params = twig_rl::memory::bdq_parameter_count(11, 1, &[512, 256], 128, &[18, 9]);
/// // Under 5 MB at 4 bytes per f32 parameter (Section V-B1).
/// assert!(params * 4 < 5_000_000);
/// ```
pub fn bdq_parameter_count(
    state_dim: usize,
    agents: usize,
    trunk_hidden: &[usize],
    head_hidden: usize,
    branches: &[usize],
) -> usize {
    let dense = |i: usize, o: usize| i * o + o;
    let mut params = 0;
    let mut prev = state_dim * agents;
    for &h in trunk_hidden {
        params += dense(prev, h);
        prev = h;
    }
    let head_input = prev + state_dim;
    // One value head per agent.
    params += agents * (dense(head_input, head_hidden) + dense(head_hidden, 1));
    // One advantage head per branch, shared across agents.
    for &n in branches {
        params += dense(head_input, head_hidden) + dense(head_hidden, n);
    }
    params
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joint_table_grows_multiplicatively() {
        assert_eq!(table_entries(25, &[30]), 750);
        assert_eq!(table_entries(25, &[30, 30]), 22_500);
        assert_eq!(table_entries(25, &[30, 30, 30]), 675_000);
    }

    #[test]
    fn counter_state_table_is_astronomical() {
        let entries = table_entries_state_counters(25, 11, &[30, 30, 30]);
        let bytes = table_bytes(entries);
        // 25^11 * 27000 * 8 bytes ≈ 5e20 — hundreds of exabytes.
        assert!(bytes > 1u128 << 68);
    }

    #[test]
    fn saturation_does_not_overflow() {
        let entries = table_entries_state_counters(u128::MAX, 3, &[2]);
        assert_eq!(entries, u128::MAX);
        assert_eq!(table_bytes(entries), u128::MAX);
    }

    #[test]
    fn bdq_grows_linearly_with_branches() {
        let base = bdq_parameter_count(11, 1, &[512, 256], 128, &[30]);
        let two = bdq_parameter_count(11, 1, &[512, 256], 128, &[30, 30]);
        let three = bdq_parameter_count(11, 1, &[512, 256], 128, &[30, 30, 30]);
        let delta1 = two - base;
        let delta2 = three - two;
        assert_eq!(delta1, delta2, "branch cost should be constant");
    }

    #[test]
    fn paper_memory_claim_holds() {
        // Twig with 3 action dimensions of 30 actions stays under 5 MB
        // while the counter-state table needs TBs (Section V-B1).
        let twig_bytes = bdq_parameter_count(11, 1, &[512, 256], 128, &[30, 30, 30]) * 4;
        assert!(twig_bytes < 5_000_000, "{twig_bytes} bytes");
        let hipster_bytes = table_bytes(table_entries_state_counters(25, 11, &[30, 30, 30]));
        assert!(hipster_bytes > 1_000_000_000_000u128);
    }
}
