//! The five workloads: one table with their names, reasons and sizes.
//!
//! A run measures for `--seconds`, so the sizes here are the parts that do
//! not scale with the window: warm-up and pre-training lengths, fleet and
//! service shapes, loads. They are identical on every commit.

/// A workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Twig-C on two services, learning on: the train step does the work.
    LearnC2,
    /// Twig-C on two services, pre-trained then frozen, diurnal load: the
    /// simulator does the work.
    ExploitC2,
    /// Twenty-four services on one socket, learning on: wide K.
    LearnK24,
    /// `Cluster::step` on eight nodes with federation and crash faults.
    FleetN8,
    /// The shipped scenario corpus, parsed and run serially.
    Corpus,
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload::LearnC2,
    Workload::ExploitC2,
    Workload::LearnK24,
    Workload::FleetN8,
    Workload::Corpus,
];

/// Warm-up epochs of the learning workloads: the replay buffer holds more
/// than one batch (64) before the timed window opens, so every timed epoch
/// takes a train step.
pub const LEARN_WARMUP_EPOCHS: u64 = 100;
/// Learning-phase length the learning workloads anneal ε over.
pub const LEARN_EPSILON_EPOCHS: u64 = 10_000;
/// Epochs `exploit_c2` trains for in set-up before the policy is frozen.
pub const EXPLOIT_PRETRAIN_EPOCHS: u64 = 1_000;
/// Diurnal load range and period of `exploit_c2` (epochs are simulated
/// seconds); the second service runs half a period behind the first.
pub const EXPLOIT_DIURNAL: (f64, f64, u64) = (0.2, 0.8, 600);
/// Fixed loads of masstree and moses on `learn_c2`.
pub const LEARN_C2_LOADS: [f64; 2] = [0.5, 0.4];
/// Services and per-service load of `learn_k24`.
pub const K24_SERVICES: usize = 24;
/// Load fraction of each `learn_k24` service.
pub const K24_LOAD: f64 = 0.04;
/// Nodes of `fleet_n8`: six default 18-core sockets, two 12-core sockets
/// with a 7-step ladder.
pub const FLEET_NODES: (usize, usize) = (6, 2);
/// Replicas per service on `fleet_n8`.
pub const FLEET_REPLICATION: usize = 3;
/// Warm-up epochs of `fleet_n8`.
pub const FLEET_WARMUP_EPOCHS: u64 = 20;
/// Node crash probability per node-epoch and automatic restart delay on
/// `fleet_n8`.
pub const FLEET_CRASH: (f64, u64) = (0.0005, 20);
/// Set-up is repeated until this many seconds of it have been timed (at
/// least [`SETUP_MIN_REPEATS`] times, at most [`SETUP_MAX_REPEATS`]).
pub const SETUP_BUDGET_S: f64 = 3.0;
/// Fewest set-ups a run times.
pub const SETUP_MIN_REPEATS: usize = 3;
/// Most set-ups a run times.
pub const SETUP_MAX_REPEATS: usize = 200;
/// Blocks the timed window is cut into for the median block rate.
pub const RATE_BLOCKS: usize = 21;

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LearnC2 => "learn_c2",
            Workload::ExploitC2 => "exploit_c2",
            Workload::LearnK24 => "learn_k24",
            Workload::FleetN8 => "fleet_n8",
            Workload::Corpus => "corpus",
        }
    }

    /// Why the workload is in the set (one line; `BENCHMARK.json` carries
    /// the same text).
    pub fn why(self) -> &'static str {
        match self {
            Workload::LearnC2 => "Twig-C on masstree+moses with learning on: the train step is ~90% of the epoch, so twig-nn/twig-rl kernel changes show here and simulator changes barely do",
            Workload::ExploitC2 => "same server with a pre-trained frozen policy under diurnal load: Server::step is ~90% of the epoch, so a twig-sim change shows here and a backward-pass change must show nothing",
            Workload::LearnK24 => "24 services on one 18-core socket with learning on: the same nn/rl layers at wide K, so a kernel tuned for K=2 that costs K=24 (or the reverse) splits from learn_c2",
            Workload::FleetN8 => "Cluster::step on 8 heterogeneous nodes with federation rounds and seeded crashes: many small nets and light simulators, so per-call overhead and the control plane dominate",
            Workload::Corpus => "the 29 shipped scenarios run serially as shipped: default governor, deadline scheduler, checkpoints, faults, platform and cluster stacks; carries assertions and digests",
        }
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Whether the benchmark builds the governor itself and pins it to its
    /// primary path (watchdog disabled), so that
    /// `core.governor_primary_share` must be 1. The fleet's per-replica
    /// governors are built inside `ClusterNode` and expose no stats; the
    /// corpus runs the default governor on purpose.
    pub fn pinned(self) -> bool {
        matches!(
            self,
            Workload::LearnC2 | Workload::ExploitC2 | Workload::LearnK24
        )
    }

    /// The operation count at which `peak_rss_mb` is read. The replay
    /// buffer grows with every epoch and the window is a time, so memory
    /// is read at a fixed count (low enough to be reached at half this
    /// machine's speed); a faster epoch must not read as more memory.
    pub fn rss_probe_at(self) -> u64 {
        match self {
            Workload::LearnC2 => 1_000,
            Workload::ExploitC2 => 20_000,
            Workload::LearnK24 => 200,
            Workload::FleetN8 => 4_000,
            // The end of the first pass.
            Workload::Corpus => 29,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_reasons_fit_the_contract() {
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why is too long", w.name());
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::by_name("nope"), None);
    }
}
