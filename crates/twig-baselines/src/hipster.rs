use crate::{config_error, BaselineError};
use twig_core::{Mapper, RewardConfig, TaskManager, PEAK_POWER_W, REWARD_POWER_MODEL};
use twig_rl::QTable;
use twig_sim::{Assignment, DvfsLadder, EpochReport, Frequency, ServiceSpec};
use twig_stats::rng::Xoshiro256;

/// Load-bucket width as a fraction of max load (the paper sweeps this
/// and settles on 4 %).
const BUCKET_WIDTH: f64 = 0.04;
/// Tabular learning rate (paper: 0.6).
const LEARNING_RATE: f64 = 0.6;
/// Discount factor (paper: 0.9).
const DISCOUNT: f64 = 0.9;
/// Exploration rate after the learning phase.
const EPSILON: f64 = 0.03;
/// Latency fraction of target above which the heuristic upsizes.
const UPSIZE_THRESHOLD: f64 = 0.80;
/// Latency fraction of target below which the heuristic downsizes.
const DOWNSIZE_THRESHOLD: f64 = 0.50;

/// Configuration of the [`Hipster`] baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct HipsterConfig {
    /// Length of the heuristic-driven learning phase in epochs
    /// (Section V-A uses 7 500–10 000 s depending on the experiment).
    pub learning_phase: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HipsterConfig {
    fn default() -> Self {
        HipsterConfig {
            learning_phase: 7_500,
            seed: 0,
        }
    }
}

/// Hipster (HPCA 2017): the paper's main single-service RL baseline.
///
/// The state is the request rate quantised into 4 % buckets; the action
/// space is every (core count, DVFS) pair, ordered by increasing estimated
/// power ("in increasing order of power efficiency").
/// During the learning phase a state-machine heuristic walks this order —
/// up when tail latency approaches the target, down when there is slack —
/// while the Q-table learns from the observed rewards; afterwards Hipster
/// acts ε-greedily from the table. The Q-learning constants are the
/// published ones (α 0.6, γ 0.9); only the learning-phase length and the
/// seed are configurable.
///
/// # Examples
///
/// ```
/// use twig_baselines::{Hipster, HipsterConfig};
/// use twig_core::TaskManager;
/// use twig_sim::{catalog, DvfsLadder};
///
/// let mut h = Hipster::new(
///     catalog::masstree(), 18, DvfsLadder::default(), HipsterConfig::default(),
/// ).unwrap();
/// let a = h.decide().unwrap();
/// assert_eq!(a.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Hipster {
    spec: ServiceSpec,
    dvfs: DvfsLadder,
    config: HipsterConfig,
    /// All (cores, dvfs index) pairs sorted by ascending estimated power.
    action_order: Vec<(usize, usize)>,
    table: QTable,
    mapper: Mapper,
    reward: RewardConfig,
    rng: Xoshiro256,
    time: u64,
    heuristic_index: usize,
    pending: Option<(usize, usize)>, // (state bucket, action index)
    last_load: f64,
    migrations: u64,
    last_cores: usize,
}

impl Hipster {
    /// Creates a Hipster manager for one service.
    ///
    /// # Errors
    ///
    /// Returns an error for a zero-core platform or an invalid spec.
    pub fn new(
        spec: ServiceSpec,
        cores: usize,
        dvfs: DvfsLadder,
        config: HipsterConfig,
    ) -> Result<Self, BaselineError> {
        if cores == 0 {
            return Err(config_error("hipster needs at least one core"));
        }
        spec.validate()?;
        let buckets = (1.0 / BUCKET_WIDTH).ceil() as usize + 1;
        // Order all actions by estimated power at a reference load — the
        // "increasing order of power efficiency" of Octopus-Man/Hipster.
        let mut action_order: Vec<(usize, usize)> = (1..=cores)
            .flat_map(|n| (0..dvfs.len()).map(move |d| (n, d)))
            .collect();
        action_order.sort_by(|&(n1, d1), &(n2, d2)| {
            let p1 = REWARD_POWER_MODEL.estimate(0.5, n1, d1);
            let p2 = REWARD_POWER_MODEL.estimate(0.5, n2, d2);
            p1.total_cmp(&p2)
        });
        let table = QTable::new(buckets, action_order.len(), LEARNING_RATE, DISCOUNT)?;
        let seed = config.seed;
        Ok(Hipster {
            spec,
            dvfs,
            config,
            action_order,
            table,
            mapper: Mapper::new(cores)?,
            reward: RewardConfig::default(),
            rng: Xoshiro256::seed_from_u64(seed),
            time: 0,
            heuristic_index: 0,
            pending: None,
            last_load: 0.0,
            migrations: 0,
            last_cores: 0,
        })
    }

    fn bucket(&self, load: f64) -> usize {
        ((load / BUCKET_WIDTH) as usize).min(self.table.states() - 1)
    }

    /// Total core-allocation sizes changed so far (the oscillation metric
    /// of Section V-B1).
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Epochs elapsed.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Bytes of the Q-table (the Section V-B1 memory metric).
    pub fn memory_bytes(&self) -> usize {
        self.table.memory_bytes()
    }

    fn action_to_assignment(&self, action: usize) -> Result<Vec<Assignment>, BaselineError> {
        let (cores, dvfs_idx) = self.action_order[action];
        let freq: Frequency = self.dvfs.frequency_at(dvfs_idx)?;
        Ok(self.mapper.assign(&[(cores, freq)])?)
    }
}

impl TaskManager for Hipster {
    fn name(&self) -> &str {
        "hipster"
    }

    fn decide(&mut self) -> Result<Vec<Assignment>, BaselineError> {
        let state = self.bucket(self.last_load);
        let action = if self.time < self.config.learning_phase {
            self.heuristic_index
        } else {
            self.table.select(state, EPSILON, &mut self.rng)
        };
        self.pending = Some((state, action));
        let assignments = self.action_to_assignment(action)?;
        let cores = assignments[0].core_count();
        if cores != self.last_cores {
            self.migrations += 1;
            self.last_cores = cores;
        }
        Ok(assignments)
    }

    fn observe(&mut self, report: &EpochReport) -> Result<(), BaselineError> {
        let svc = report
            .services
            .first()
            .ok_or_else(|| config_error("empty report"))?;
        self.last_load = svc.load_fraction;
        let next_state = self.bucket(svc.load_fraction);

        if let Some((state, action)) = self.pending.take() {
            let (cores, dvfs_idx) = self.action_order[action];
            let est = REWARD_POWER_MODEL.estimate(svc.load_fraction, cores, dvfs_idx);
            let power_rew = self.reward.power_reward(PEAK_POWER_W, est);
            let r = self.reward.reward(svc.p99_ms, self.spec.qos_ms, power_rew);
            self.table.update(state, action, r, next_state);

            // Heuristic state machine: walk the power-ordered action list.
            let tardiness = svc.p99_ms / self.spec.qos_ms;
            let max = self.action_order.len() - 1;
            if tardiness > 1.0 {
                // Violation: jump up aggressively.
                self.heuristic_index = (self.heuristic_index + max / 10 + 1).min(max);
            } else if tardiness > UPSIZE_THRESHOLD {
                self.heuristic_index = (self.heuristic_index + 1).min(max);
            } else if tardiness < DOWNSIZE_THRESHOLD {
                self.heuristic_index = self.heuristic_index.saturating_sub(1);
            }
        }
        self.time += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_sim::{catalog, Server, ServerConfig};

    fn hipster(phase: u64) -> Hipster {
        Hipster::new(
            catalog::masstree(),
            18,
            DvfsLadder::default(),
            HipsterConfig {
                learning_phase: phase,
                ..HipsterConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn constructor_validation() {
        assert!(Hipster::new(
            catalog::moses(),
            0,
            DvfsLadder::default(),
            HipsterConfig::default()
        )
        .is_err());
    }

    #[test]
    fn action_order_is_power_ascending() {
        let h = hipster(10);
        let powers: Vec<f64> = h
            .action_order
            .iter()
            .map(|&(n, d)| REWARD_POWER_MODEL.estimate(0.5, n, d))
            .collect();
        for w in powers.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // Cheapest action is 1 core at the lowest DVFS.
        assert_eq!(h.action_order[0], (1, 0));
        assert_eq!(*h.action_order.last().unwrap(), (18, 8));
    }

    #[test]
    fn heuristic_upsizes_under_pressure() {
        let specs = vec![catalog::masstree()];
        let mut server = Server::new(ServerConfig::default(), specs, 3).unwrap();
        server.set_load_fraction(0, 0.8).unwrap();
        let mut h = hipster(1_000);
        let start_index = h.heuristic_index;
        for _ in 0..60 {
            let a = h.decide().unwrap();
            let r = server.step(&a).unwrap();
            h.observe(&r).unwrap();
        }
        // At 80% load the cheapest configs violate, so the heuristic walks up.
        assert!(h.heuristic_index > start_index + 10);
        assert!(h.migrations() > 0);
    }

    #[test]
    fn q_table_memory_matches_formula() {
        let h = hipster(10);
        // 26 buckets (4% width + catch-all) x 162 actions x 8 bytes.
        assert_eq!(h.memory_bytes(), h.table.states() * 162 * 8);
    }

    #[test]
    fn switches_to_rl_after_learning_phase() {
        let specs = vec![catalog::masstree()];
        let mut server = Server::new(ServerConfig::default(), specs, 4).unwrap();
        server.set_load_fraction(0, 0.5).unwrap();
        let mut h = hipster(5);
        for t in 0..10 {
            let a = h.decide().unwrap();
            let r = server.step(&a).unwrap();
            h.observe(&r).unwrap();
            if t >= 5 {
                // RL phase: pending uses table selection (no panic, valid action).
                assert!(h.time() > 5 || h.pending.is_none());
            }
        }
        assert_eq!(h.time(), 10);
    }
}
