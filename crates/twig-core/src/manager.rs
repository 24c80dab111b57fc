use crate::{
    Checkpointable, ManagerError, Mapper, RewardConfig, SystemMonitor, TwigError, PEAK_POWER_W,
    REWARD_POWER_MODEL,
};
use twig_rl::{
    decode_checkpoint, encode_checkpoint, EpsilonSchedule, MaBdq, MaBdqCheckpoint, MaBdqConfig,
    RlError,
};
use twig_sim::{Assignment, DvfsLadder, EpochReport, ServiceSpec};
use twig_telemetry::{Phase, Telemetry};

/// Common interface of every task manager in this workspace (Twig and the
/// baselines), so experiments can drive them interchangeably:
/// [`decide`](Self::decide) produces the next epoch's assignments,
/// [`observe`](Self::observe) feeds back what the platform measured.
///
/// Errors are structured ([`ManagerError`]): `Recoverable` failures let a
/// supervisor (see [`SafetyGovernor`](crate::SafetyGovernor)) substitute a
/// fallback decision and keep the control loop alive, `Fatal` ones abort.
pub trait TaskManager {
    /// The manager's display name (used in experiment output).
    fn name(&self) -> &str;

    /// Chooses the resource assignment for the next epoch, one per service.
    ///
    /// # Errors
    ///
    /// [`ManagerError::Recoverable`] for transient failures a supervisor
    /// can ride through, [`ManagerError::Fatal`] otherwise.
    fn decide(&mut self) -> Result<Vec<Assignment>, ManagerError>;

    /// Consumes the epoch's measurements (tail latency, counters, power).
    ///
    /// # Errors
    ///
    /// [`ManagerError::Recoverable`] for transient failures a supervisor
    /// can ride through, [`ManagerError::Fatal`] otherwise.
    fn observe(&mut self, report: &EpochReport) -> Result<(), ManagerError>;

    /// Consumes an epoch whose telemetry is known to be corrupted
    /// (`report.telemetry` flags a PMC fault). The default forwards to
    /// [`observe`](Self::observe); learning managers override it to keep
    /// their clocks and internal state consistent *without* training on the
    /// garbage observation.
    ///
    /// # Errors
    ///
    /// Same contract as [`observe`](Self::observe).
    fn observe_degraded(&mut self, report: &EpochReport) -> Result<(), ManagerError> {
        self.observe(report)
    }

    /// Degraded decision path for the `SafeFallback` shed tier: a decide a
    /// manager can still serve when the epoch budget is exhausted. [`Twig`]
    /// overrides it with the greedy argmax of its f32 network (no
    /// exploration, no stickiness, nothing learned); the default reports
    /// `Recoverable` so a supervisor (see
    /// [`SafetyGovernor`](crate::SafetyGovernor)) substitutes the safe static
    /// allocation.
    ///
    /// # Errors
    ///
    /// [`ManagerError::Recoverable`] when no degraded path exists or it
    /// cannot serve this epoch; same contract as [`decide`](Self::decide)
    /// otherwise.
    fn decide_fallback(&mut self) -> Result<Vec<Assignment>, ManagerError> {
        Err(ManagerError::recoverable(
            "manager has no degraded decision path",
        ))
    }
}

/// Configuration of a [`Twig`] manager.
#[derive(Debug, Clone, PartialEq)]
pub struct TwigConfig {
    /// The managed services (Twig-S for one, Twig-C for several).
    pub services: Vec<ServiceSpec>,
    /// Socket size.
    pub cores: usize,
    /// The platform's DVFS ladder.
    pub dvfs: DvfsLadder,
    /// PMC smoothing window η (Section III-B1; the paper uses 5).
    pub eta: usize,
    /// The ε-annealing schedule (Section IV).
    pub epsilon: EpsilonSchedule,
    /// The Eq. 1 reward parameters.
    pub reward: RewardConfig,
    /// Learning-agent overrides (network sizes, lr, PER, …). `agents`,
    /// `state_dim` and `branches` are derived from the platform and
    /// overwritten.
    pub agent: MaBdqConfig,
    /// When `true`, skip gradient descent and run pure exploitation — the
    /// paper's recommendation once the agent "has seen sufficient
    /// experiences" (Section V, Overhead).
    pub pure_exploitation: bool,
    /// Gradient steps per decision epoch. The paper takes one step per
    /// second over a 10 000 s learning phase; shortened experiments keep
    /// the same total step budget by replaying the buffer more per epoch.
    pub train_steps_per_epoch: u32,
    /// Action hysteresis (not in the paper; 0 disables): when exploiting,
    /// keep the previous action on a branch unless the greedy action's
    /// Q-value exceeds the previous action's by this fraction of the Q
    /// range. Damps policy oscillation between near-tied allocations, whose
    /// migration costs otherwise snowball under time-varying load.
    pub action_stickiness: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TwigConfig {
    fn default() -> Self {
        TwigConfig {
            services: Vec::new(),
            cores: 18,
            dvfs: DvfsLadder::default(),
            eta: 5,
            epsilon: EpsilonSchedule::paper(),
            reward: RewardConfig::default(),
            agent: MaBdqConfig::default(),
            pure_exploitation: false,
            train_steps_per_epoch: 1,
            action_stickiness: 0.0,
            seed: 0,
        }
    }
}

/// Builder for [`Twig`].
///
/// # Examples
///
/// ```
/// use twig_core::{TaskManager, TwigBuilder};
/// use twig_rl::EpsilonSchedule;
/// use twig_sim::catalog;
///
/// let twig = TwigBuilder::new()
///     .services(vec![catalog::moses(), catalog::masstree()])
///     .epsilon(EpsilonSchedule::scaled(500))
///     .seed(1)
///     .build()
///     .unwrap();
/// assert_eq!(twig.name(), "twig-c");
/// ```
#[derive(Debug, Clone, Default)]
pub struct TwigBuilder {
    config: TwigConfig,
}

impl TwigBuilder {
    /// Starts from the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the managed services.
    pub fn services(mut self, services: Vec<ServiceSpec>) -> Self {
        self.config.services = services;
        self
    }

    /// Sets the socket size.
    pub fn cores(mut self, cores: usize) -> Self {
        self.config.cores = cores;
        self
    }

    /// Sets the DVFS ladder.
    pub fn dvfs(mut self, dvfs: DvfsLadder) -> Self {
        self.config.dvfs = dvfs;
        self
    }

    /// Sets the ε schedule (use [`EpsilonSchedule::scaled`] for shortened
    /// experiments).
    pub fn epsilon(mut self, epsilon: EpsilonSchedule) -> Self {
        self.config.epsilon = epsilon;
        self
    }

    /// Sets the reward parameters.
    pub fn reward(mut self, reward: RewardConfig) -> Self {
        self.config.reward = reward;
        self
    }

    /// Overrides learning-agent settings (network width, lr, PER, …).
    pub fn agent(mut self, agent: MaBdqConfig) -> Self {
        self.config.agent = agent;
        self
    }

    /// Enables pure exploitation (no gradient descent).
    pub fn pure_exploitation(mut self, on: bool) -> Self {
        self.config.pure_exploitation = on;
        self
    }

    /// Sets the number of gradient steps per decision epoch (replay ratio).
    pub fn train_steps_per_epoch(mut self, steps: u32) -> Self {
        self.config.train_steps_per_epoch = steps;
        self
    }

    /// Sets the action-hysteresis margin (see
    /// [`TwigConfig::action_stickiness`]).
    pub fn action_stickiness(mut self, margin: f64) -> Self {
        self.config.action_stickiness = margin;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Builds the manager.
    ///
    /// # Errors
    ///
    /// Returns [`TwigError::InvalidConfig`] when no services are configured
    /// or the platform/agent configuration is invalid.
    pub fn build(self) -> Result<Twig, TwigError> {
        Twig::new(self.config)
    }
}

/// The Twig task manager (Algorithm 1): one multi-agent BDQ managing every
/// latency-critical service on the socket.
///
/// Call [`decide`](Self::decide) at the start of each epoch and
/// [`observe`](Self::observe) with the platform's measurements at its end.
/// See the crate docs for a full example.
#[derive(Debug, Clone)]
pub struct Twig {
    config: TwigConfig,
    agent: MaBdq,
    monitor: SystemMonitor,
    mapper: Mapper,
    name: String,
    time: u64,
    pending: Pending,
    /// The previous epoch's actions for the stickiness check; empty when
    /// there are none (first epoch, after a restore or a service swap).
    last_actions: Vec<Vec<usize>>,
    /// What `observe` hands the agent next to `pending`, refilled every
    /// epoch. Like `pending` and `last_actions` these keep their capacity:
    /// the agent copies a transition into its replay buffer, so nothing
    /// allocated for one epoch is still alive in the next.
    next_states: Vec<Vec<f32>>,
    rewards: Vec<f32>,
    /// What `decide_fallback` decides on and decides, kept apart from
    /// `pending` because a shed epoch leaves no transition behind.
    fallback_states: Vec<Vec<f32>>,
    fallback_actions: Vec<Vec<usize>>,
    /// What a decision asks of the mapper, one `(cores, frequency)` per agent.
    requests: Vec<(usize, twig_sim::Frequency)>,
    telemetry: Telemetry,
}

/// The decision `decide` took and the states it took it on, until `observe`
/// turns them into a transition.
#[derive(Debug, Clone, Default)]
struct Pending {
    states: Vec<Vec<f32>>,
    actions: Vec<Vec<usize>>,
    /// `false` once the decision is consumed or discarded; the buffers stay.
    live: bool,
}

impl Twig {
    /// Creates a manager from a full configuration (see [`TwigBuilder`]).
    ///
    /// # Errors
    ///
    /// Returns [`TwigError::InvalidConfig`] for an empty service list or an
    /// invalid platform/agent configuration.
    pub fn new(config: TwigConfig) -> Result<Self, TwigError> {
        if config.services.is_empty() {
            return Err(TwigError::InvalidConfig {
                detail: "no services".into(),
            });
        }
        for s in &config.services {
            s.validate().map_err(TwigError::Sim)?;
        }
        if config.cores == 0 {
            return Err(TwigError::InvalidConfig {
                detail: "zero cores".into(),
            });
        }
        let k = config.services.len();
        let agent_config = MaBdqConfig {
            agents: k,
            state_dim: twig_sim::NUM_COUNTERS,
            branches: vec![config.cores, config.dvfs.len()],
            seed: config.seed,
            ..config.agent.clone()
        };
        let agent = MaBdq::new(agent_config).map_err(TwigError::Learning)?;
        let monitor = SystemMonitor::new(k, config.eta, config.cores)?;
        let mapper = Mapper::new(config.cores)?;
        let name = if k == 1 {
            "twig-s".to_string()
        } else {
            "twig-c".to_string()
        };
        Ok(Twig {
            config,
            agent,
            monitor,
            mapper,
            name,
            time: 0,
            pending: Pending::default(),
            last_actions: Vec::new(),
            next_states: Vec::new(),
            rewards: Vec::new(),
            fallback_states: Vec::new(),
            fallback_actions: Vec::new(),
            requests: Vec::new(),
            telemetry: Telemetry::disabled(),
        })
    }

    /// Attaches a telemetry handle: [`decide`](Self::decide) and
    /// [`observe`](Self::observe) then record phase timings (PMC read,
    /// inference, mapping, reward update, learn step), the exploration
    /// rate, and degraded-epoch counts. The handle is forwarded to the
    /// learning agent for its own metrics. Telemetry never feeds back into
    /// decisions, so the policy is identical with or without it.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.agent.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The configuration.
    pub fn config(&self) -> &TwigConfig {
        &self.config
    }

    /// Decision epochs elapsed.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// The current exploration rate.
    pub fn epsilon(&self) -> f64 {
        self.config.epsilon.value_at(self.time)
    }

    /// The learning agent (for inspection).
    pub fn agent(&self) -> &MaBdq {
        &self.agent
    }

    /// Mutable access to the learning agent, for drivers that manage the
    /// learning phase themselves —
    /// [`EpochScheduler::metered_epoch`](crate::EpochScheduler::metered_epoch)
    /// advances the gradient step one agent per chunk grant via
    /// `MaBdq::train_step_budgeted` while the manager runs with
    /// `TwigBuilder::pure_exploitation(true)` so `observe` never takes the
    /// step itself.
    pub fn agent_mut(&mut self) -> &mut MaBdq {
        &mut self.agent
    }

    /// Serializes the learner's full state (network, optimizer moments,
    /// anneal counters, replay priorities) with the twig-rl versioned
    /// binary codec. Restore with
    /// [`restore_checkpoint_bytes`](Self::restore_checkpoint_bytes).
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        encode_checkpoint(&self.agent.save_checkpoint())
    }

    /// Restores the learner from codec bytes: the integrity check (CRC)
    /// of [`decode_checkpoint`], then [`load_checkpoint`](Self::load_checkpoint).
    ///
    /// # Errors
    ///
    /// Returns [`TwigError::Learning`] wrapping
    /// [`RlError::CorruptCheckpoint`] or [`RlError::CheckpointMismatch`];
    /// the manager is left unchanged in that case.
    pub fn restore_checkpoint_bytes(&mut self, bytes: &[u8]) -> Result<(), TwigError> {
        let ckpt = decode_checkpoint(bytes).map_err(TwigError::Learning)?;
        self.load_checkpoint(&ckpt)
    }

    /// Restores the learner from a checkpoint struct, validating its
    /// architecture against the live configuration. In-flight epoch state
    /// (pending transition, sticky actions) is discarded, and when the
    /// checkpoint carries trained weights the ε schedule resumes at the
    /// exploitation point instead of re-exploring from the start.
    ///
    /// # Errors
    ///
    /// Returns [`TwigError::Learning`] wrapping
    /// [`RlError::CheckpointMismatch`]; the manager is left unchanged in
    /// that case.
    pub fn load_checkpoint(&mut self, ckpt: &MaBdqCheckpoint) -> Result<(), TwigError> {
        let trained = ckpt.steps > 0;
        self.agent
            .load_checkpoint(ckpt)
            .map_err(TwigError::Learning)?;
        self.pending.live = false;
        self.last_actions.clear();
        if trained {
            let restart = self.config.epsilon.learning_phase_end();
            self.time = self.time.max(restart);
        }
        Ok(())
    }

    /// Switches to pure exploitation (drops gradient descent), reducing the
    /// per-epoch overhead as recommended in Section V.
    pub fn set_pure_exploitation(&mut self, on: bool) {
        self.config.pure_exploitation = on;
    }

    /// Algorithm 1 lines 7–8: choose the mapping configuration for the next
    /// epoch, ε-greedily over the (core count, DVFS) branches of each
    /// agent, and resolve it to concrete cores via the mapper. Unless in
    /// pure exploitation, it then starts the prologue of the gradient step
    /// [`observe`](Self::observe) takes (`MaBdq::prepare_step`), which a
    /// helper thread runs while the caller runs the epoch; nothing it
    /// computes depends on which thread did.
    ///
    /// # Errors
    ///
    /// Propagates learning and mapping errors.
    pub fn decide(&mut self) -> Result<Vec<Assignment>, TwigError> {
        let mut stopwatch = self.telemetry.stopwatch();
        // A decision that fails half-way leaves nothing to learn from.
        self.pending.live = false;
        let Pending {
            states, actions, ..
        } = &mut self.pending;
        self.monitor.states_into(states)?;
        self.telemetry
            .phase_add(self.time, Phase::PmcRead, stopwatch.lap_ms());
        let epsilon = self.config.epsilon.value_at(self.time);
        self.telemetry.gauge_set("twig.epsilon", epsilon);
        self.agent
            .select_actions_into(states, epsilon, actions)
            .map_err(TwigError::Learning)?;
        if self.config.action_stickiness > 0.0 && !self.last_actions.is_empty() {
            for (k, agent_actions) in actions.iter_mut().enumerate() {
                for (d, action) in agent_actions.iter_mut().enumerate() {
                    let prev = self.last_actions[k][d];
                    if prev == *action {
                        continue;
                    }
                    // The Q-values the selection above just computed.
                    let row = self
                        .agent
                        .last_q_values(k, d)
                        .expect("selected for every agent and branch");
                    let lo = row.iter().cloned().fold(f32::INFINITY, f32::min);
                    let hi = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    let margin = (self.config.action_stickiness * f64::from(hi - lo)) as f32;
                    // Keep the previous choice unless the new one is a
                    // clear improvement (never overrides exploration
                    // moves that beat it by the margin).
                    if row[*action] - row[prev] < margin {
                        *action = prev;
                    }
                }
            }
        }
        self.last_actions.clone_from(actions);
        self.telemetry
            .phase_add(self.time, Phase::Inference, stopwatch.lap_ms());
        fill_requests(&self.config, actions, &mut self.requests)?;
        let assignments = self.mapper.assign(&self.requests)?;
        self.telemetry
            .phase_add(self.time, Phase::Mapping, stopwatch.lap_ms());
        self.pending.live = true;
        // The epoch's gradient step starts on the learner's helper thread
        // while the caller runs the epoch; `observe` joins it.
        if !self.config.pure_exploitation {
            self.agent
                .prepare_step(&self.pending.states, &self.pending.actions);
        }
        Ok(assignments)
    }

    /// Degraded decide for the `SafeFallback` shed tier: the greedy
    /// per-branch argmax of the same fused f32 forward
    /// [`decide`](Self::decide) runs (`MaBdq::select_actions_greedy_into`).
    /// Deliberately austere — no exploration, no action stickiness, no
    /// pending transition (shed epochs are never trained on), and no draw
    /// from the ε RNG stream, so a shed epoch cannot perturb the primary
    /// policy's behaviour.
    ///
    /// # Errors
    ///
    /// Propagates learning and mapping errors.
    pub fn decide_fallback(&mut self) -> Result<Vec<Assignment>, TwigError> {
        let mut stopwatch = self.telemetry.stopwatch();
        self.monitor.states_into(&mut self.fallback_states)?;
        self.telemetry
            .phase_add(self.time, Phase::PmcRead, stopwatch.lap_ms());
        self.agent
            .select_actions_greedy_into(&self.fallback_states, &mut self.fallback_actions)
            .map_err(TwigError::Learning)?;
        self.telemetry
            .phase_add(self.time, Phase::Inference, stopwatch.lap_ms());
        fill_requests(&self.config, &self.fallback_actions, &mut self.requests)?;
        let assignments = self.mapper.assign(&self.requests)?;
        self.telemetry
            .phase_add(self.time, Phase::Mapping, stopwatch.lap_ms());
        Ok(assignments)
    }

    /// Algorithm 1 lines 10–13: observe the new per-service states, compute
    /// the Eq. 1 rewards, store the transition and run one gradient step
    /// (unless in pure exploitation).
    ///
    /// # Errors
    ///
    /// Returns [`TwigError::ReportMismatch`] when the report's service count
    /// differs, and propagates learning errors.
    pub fn observe(&mut self, report: &EpochReport) -> Result<(), TwigError> {
        let k = self.config.services.len();
        if report.services.len() != k {
            return Err(TwigError::ReportMismatch {
                detail: format!("report has {} services, manager {k}", report.services.len()),
            });
        }
        let mut stopwatch = self.telemetry.stopwatch();
        for (i, svc) in report.services.iter().enumerate() {
            self.monitor.update(i, &svc.pmcs)?;
        }
        self.monitor.states_into(&mut self.next_states)?;

        if std::mem::take(&mut self.pending.live) {
            let pending = &self.pending;
            self.rewards.clear();
            for (i, svc) in report.services.iter().enumerate() {
                let spec = &self.config.services[i];
                let dvfs_idx = pending.actions[i][1];
                let cores = pending.actions[i][0] + 1;
                let est = REWARD_POWER_MODEL.estimate(svc.load_fraction, cores, dvfs_idx);
                let power_rew = self.config.reward.power_reward(PEAK_POWER_W, est);
                self.rewards.push(
                    self.config
                        .reward
                        .reward(svc.p99_ms, spec.qos_ms, power_rew) as f32,
                );
            }
            match self.agent.observe_parts(
                &pending.states,
                &pending.actions,
                &self.rewards,
                &self.next_states,
            ) {
                // A non-finite state or reward slipped past the monitor
                // (e.g. corrupted telemetry the platform did not flag): the
                // learner refused (and counted) the transition; the control
                // loop goes on without it.
                Ok(()) | Err(RlError::NonFinite { .. }) => {}
                Err(e) => return Err(TwigError::Learning(e)),
            }
            self.telemetry
                .phase_add(self.time, Phase::RewardUpdate, stopwatch.lap_ms());
            if !self.config.pure_exploitation {
                for _ in 0..self.config.train_steps_per_epoch.max(1) {
                    self.agent.train_step().map_err(TwigError::Learning)?;
                }
            }
            self.telemetry
                .phase_add(self.time, Phase::LearnStep, stopwatch.lap_ms());
        }
        self.time += 1;
        Ok(())
    }

    /// Transfer learning (Section IV): when service `index` is swapped for a
    /// new one at runtime, re-initialise the final network layers (keeping
    /// the trunk's shared representation), clear that service's monitor
    /// history and resume with a short re-exploration phase.
    ///
    /// # Errors
    ///
    /// Returns [`TwigError::ReportMismatch`] for an unknown service and
    /// [`TwigError::Sim`] for an invalid spec.
    pub fn transfer_service(&mut self, index: usize, spec: ServiceSpec) -> Result<(), TwigError> {
        if index >= self.config.services.len() {
            return Err(TwigError::ReportMismatch {
                detail: format!("service {index}"),
            });
        }
        spec.validate().map_err(TwigError::Sim)?;
        self.config.services[index] = spec;
        self.monitor.reset_service(index)?;
        self.agent.transfer_reset();
        self.pending.live = false;
        self.last_actions.clear();
        // Resume with a brief exploratory burst: restart the ε clock at the
        // 10%-exploration point rather than from scratch.
        let restart = self.config.epsilon.learning_phase_end();
        self.time = self.time.max(restart);
        Ok(())
    }

    /// Consumes an epoch with known-corrupted telemetry: the monitor is
    /// still updated (it substitutes last-known-good values for non-finite
    /// counters) and the epoch clock advances, but the pending transition
    /// is discarded so the replay buffer never stores a transition built on
    /// a garbage observation.
    ///
    /// # Errors
    ///
    /// Returns [`TwigError::ReportMismatch`] when the report's service
    /// count differs.
    pub fn observe_degraded(&mut self, report: &EpochReport) -> Result<(), TwigError> {
        let k = self.config.services.len();
        if report.services.len() != k {
            return Err(TwigError::ReportMismatch {
                detail: format!("report has {} services, manager {k}", report.services.len()),
            });
        }
        for (i, svc) in report.services.iter().enumerate() {
            self.monitor.update(i, &svc.pmcs)?;
        }
        self.pending.live = false;
        self.time += 1;
        Ok(())
    }
}

/// Translates each agent's `(core-count, DVFS)` branch actions into the
/// `(cores, frequency)` request the mapper resolves, replacing `requests`.
fn fill_requests(
    config: &TwigConfig,
    actions: &[Vec<usize>],
    requests: &mut Vec<(usize, twig_sim::Frequency)>,
) -> Result<(), TwigError> {
    requests.clear();
    for a in actions {
        let cores = a[0] + 1; // branch 0: 1..=cores
        let freq = config.dvfs.frequency_at(a[1]).map_err(TwigError::Sim)?;
        requests.push((cores.min(config.cores), freq));
    }
    Ok(())
}

impl Checkpointable for Twig {
    fn checkpoint_bytes(&self) -> Result<Vec<u8>, TwigError> {
        Ok(Twig::checkpoint_bytes(self))
    }

    fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), TwigError> {
        self.restore_checkpoint_bytes(bytes)
    }
}

impl TaskManager for Twig {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self) -> Result<Vec<Assignment>, ManagerError> {
        Ok(Twig::decide(self)?)
    }

    fn observe(&mut self, report: &EpochReport) -> Result<(), ManagerError> {
        Ok(Twig::observe(self, report)?)
    }

    fn observe_degraded(&mut self, report: &EpochReport) -> Result<(), ManagerError> {
        Ok(Twig::observe_degraded(self, report)?)
    }

    fn decide_fallback(&mut self) -> Result<Vec<Assignment>, ManagerError> {
        Ok(Twig::decide_fallback(self)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_rl::QuarantineConfig;
    use twig_sim::{catalog, Server, ServerConfig};

    fn small_agent() -> MaBdqConfig {
        MaBdqConfig {
            trunk_hidden: vec![32, 24],
            head_hidden: 16,
            dropout: 0.0,
            batch_size: 8,
            buffer_capacity: 2048,
            ..MaBdqConfig::default()
        }
    }

    fn build_twig(services: Vec<ServiceSpec>) -> Twig {
        TwigBuilder::new()
            .services(services)
            .agent(small_agent())
            .epsilon(EpsilonSchedule::scaled(100))
            .seed(11)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_requires_services() {
        assert!(TwigBuilder::new().build().is_err());
    }

    #[test]
    fn names_follow_variant() {
        assert_eq!(build_twig(vec![catalog::masstree()]).name(), "twig-s");
        assert_eq!(
            build_twig(vec![catalog::masstree(), catalog::moses()]).name(),
            "twig-c"
        );
    }

    #[test]
    fn armed_quarantine_guards_every_agent_from_the_build() {
        let guards = |services: Vec<ServiceSpec>, quarantine: QuarantineConfig| {
            let twig = TwigBuilder::new()
                .services(services)
                .agent(MaBdqConfig {
                    quarantine,
                    ..small_agent()
                })
                .build()
                .unwrap();
            twig.agent().learner_memory().guards
        };
        let armed = QuarantineConfig::default().armed();
        let one = guards(vec![catalog::masstree()], armed.clone());
        let pair = guards(vec![catalog::masstree(), catalog::moses()], armed);
        // Every agent's guard snapshots a value head of the same shape.
        assert!(one > 0);
        assert_eq!(pair, 2 * one);
        let dormant = QuarantineConfig::default();
        assert_eq!(
            guards(vec![catalog::masstree(), catalog::moses()], dormant),
            0
        );
    }

    #[test]
    fn decide_produces_valid_assignments() {
        let mut twig = build_twig(vec![catalog::masstree(), catalog::xapian()]);
        let a = Twig::decide(&mut twig).unwrap();
        assert_eq!(a.len(), 2);
        for assignment in &a {
            assert!((1..=18).contains(&assignment.core_count()));
            assert!(twig.config.dvfs.index_of(assignment.freq).is_ok());
        }
    }

    #[test]
    fn full_loop_against_simulator() {
        let spec = catalog::masstree();
        let mut server = Server::new(ServerConfig::default(), vec![spec.clone()], 3).unwrap();
        server.set_load_fraction(0, 0.5).unwrap();
        let mut twig = build_twig(vec![spec]);
        for _ in 0..30 {
            let a = Twig::decide(&mut twig).unwrap();
            let report = server.step(&a).unwrap();
            Twig::observe(&mut twig, &report).unwrap();
        }
        assert_eq!(twig.time(), 30);
        assert!(twig.agent().buffer_len() > 0);
        assert!(twig.agent().steps() > 0, "training should have started");
    }

    #[test]
    fn pure_exploitation_skips_training() {
        let spec = catalog::masstree();
        let mut server = Server::new(ServerConfig::default(), vec![spec.clone()], 4).unwrap();
        let mut twig = build_twig(vec![spec]);
        twig.set_pure_exploitation(true);
        for _ in 0..20 {
            let a = Twig::decide(&mut twig).unwrap();
            let report = server.step(&a).unwrap();
            Twig::observe(&mut twig, &report).unwrap();
        }
        assert_eq!(twig.agent().steps(), 0);
    }

    #[test]
    fn epsilon_follows_schedule() {
        let mut twig = build_twig(vec![catalog::moses()]);
        assert_eq!(twig.epsilon(), 1.0);
        let mut server = Server::new(ServerConfig::default(), vec![catalog::moses()], 5).unwrap();
        for _ in 0..100 {
            let a = Twig::decide(&mut twig).unwrap();
            let report = server.step(&a).unwrap();
            Twig::observe(&mut twig, &report).unwrap();
        }
        assert!((twig.epsilon() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn observe_rejects_mismatched_report() {
        let mut twig = build_twig(vec![catalog::masstree(), catalog::moses()]);
        let mut server =
            Server::new(ServerConfig::default(), vec![catalog::masstree()], 6).unwrap();
        let report = server
            .step(&[twig_sim::Assignment::first_n(
                4,
                DvfsLadder::default().max(),
            )])
            .unwrap();
        assert!(Twig::observe(&mut twig, &report).is_err());
    }

    #[test]
    fn transfer_service_resets_monitor_and_bumps_time() {
        let mut twig = build_twig(vec![catalog::moses(), catalog::masstree()]);
        let mut server = Server::new(
            ServerConfig::default(),
            vec![catalog::moses(), catalog::masstree()],
            7,
        )
        .unwrap();
        for _ in 0..10 {
            let a = Twig::decide(&mut twig).unwrap();
            let report = server.step(&a).unwrap();
            Twig::observe(&mut twig, &report).unwrap();
        }
        twig.transfer_service(0, catalog::xapian()).unwrap();
        assert_eq!(twig.config().services[0].name, "xapian");
        // Time jumps to the end of the learning phase => epsilon at 0.1.
        assert!((twig.epsilon() - 0.1).abs() < 1e-9);
        assert!(twig.transfer_service(5, catalog::xapian()).is_err());
    }

    #[test]
    fn action_stickiness_damps_oscillation() {
        let spec = catalog::masstree();
        let run = |stickiness: f64| {
            let mut twig = TwigBuilder::new()
                .services(vec![spec.clone()])
                .agent(small_agent())
                .epsilon(EpsilonSchedule::new(0.1, 0.0, 1, 2)) // exploit from the start
                .action_stickiness(stickiness)
                .seed(21)
                .build()
                .unwrap();
            let mut server = Server::new(ServerConfig::default(), vec![spec.clone()], 22).unwrap();
            server.set_load_fraction(0, 0.5).unwrap();
            let mut changes = 0;
            let mut prev_cores = None;
            for _ in 0..60 {
                let a = Twig::decide(&mut twig).unwrap();
                if let Some(p) = prev_cores {
                    if p != a[0].core_count() {
                        changes += 1;
                    }
                }
                prev_cores = Some(a[0].core_count());
                let r = server.step(&a).unwrap();
                Twig::observe(&mut twig, &r).unwrap();
            }
            changes
        };
        let free = run(0.0);
        let sticky = run(0.25);
        assert!(
            sticky <= free,
            "hysteresis should not increase switching ({sticky} vs {free})"
        );
    }

    /// The sticky `decide` as it was when it forwarded the network twice:
    /// select, then `q_values` on the same states for the margin test.
    fn select_then_second_forward(
        agent: &mut MaBdq,
        states: &[Vec<f32>],
        epsilon: f64,
        previous: &[Vec<usize>],
        stickiness: f64,
    ) -> Vec<Vec<usize>> {
        let mut actions = agent.select_actions(states, epsilon).unwrap();
        if previous.is_empty() {
            return actions;
        }
        let q = agent.q_values(states).unwrap();
        for (k, agent_actions) in actions.iter_mut().enumerate() {
            for (d, action) in agent_actions.iter_mut().enumerate() {
                let prev = previous[k][d];
                if prev == *action {
                    continue;
                }
                let row = &q[k][d];
                let lo = row.iter().cloned().fold(f32::INFINITY, f32::min);
                let hi = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                let margin = (stickiness * f64::from(hi - lo)) as f32;
                if row[*action] - row[prev] < margin {
                    *action = prev;
                }
            }
        }
        actions
    }

    #[test]
    fn sticky_decide_forwards_once_and_decides_the_same() {
        // 2 000 learning epochs, ε from 1 down to 0.1 and on towards 0.01,
        // so exploration draws, greedy picks and kept-previous picks all
        // occur. Each epoch a clone of the agent (same weights, same RNG
        // position) decides the old way first.
        let specs = vec![catalog::masstree(), catalog::moses()];
        let stickiness = 0.1;
        let mut twig = TwigBuilder::new()
            .services(specs.clone())
            .agent(small_agent())
            .epsilon(EpsilonSchedule::scaled(400))
            .action_stickiness(stickiness)
            .seed(31)
            .build()
            .unwrap();
        let mut server = Server::new(ServerConfig::default(), specs, 32).unwrap();
        let (mut kept, mut moved) = (0, 0);
        for epoch in 0..2_000 {
            let states = twig.monitor.states().unwrap();
            let mut twin = twig.agent.clone();
            let want = select_then_second_forward(
                &mut twin,
                &states,
                twig.epsilon(),
                &twig.last_actions,
                stickiness,
            );
            let unsticky = twig
                .agent
                .clone()
                .select_actions(&states, twig.epsilon())
                .unwrap();
            let assignments = Twig::decide(&mut twig).unwrap();
            assert!(twig.pending.live);
            assert_eq!(twig.pending.states, states, "epoch {epoch}");
            assert_eq!(twig.pending.actions, want, "epoch {epoch}");
            assert_eq!(twig.last_actions, want, "epoch {epoch}");
            if want == unsticky {
                moved += 1;
            } else {
                kept += 1;
            }
            let report = server.step(&assignments).unwrap();
            Twig::observe(&mut twig, &report).unwrap();
            assert!(!twig.pending.live);
        }
        assert!(twig.agent().steps() > 1_900, "the agent was learning");
        assert!(
            kept > 50 && moved > 50,
            "stickiness overrode {kept} decisions and let {moved} stand"
        );
    }

    /// What a governed run left in the replay buffer, next to what the run
    /// itself saw happen.
    struct ChainRun {
        /// `MaBdq::replay_unlinked()` at the end.
        unlinked: usize,
        /// Stored transitions whose follower started from other state bits
        /// than they ended on.
        breaks: usize,
        /// Stores that came after one or more epochs that stored nothing.
        gaps: usize,
        stored: usize,
        dropped: u64,
        stats: crate::GovernorStats,
    }

    /// 2 400 epochs of Twig-C under a safety governor, the replay buffer
    /// large enough to keep them all. `faulty` adds PMC corruption and
    /// rejected actuations, and every 41st clean report has its tail latency
    /// replaced with NaN — corruption the platform did not flag — which a
    /// reward without a floor turns into a non-finite reward the buffer
    /// refuses.
    fn governed_chain_run(faulty: bool) -> ChainRun {
        use crate::{GovernorConfig, SafetyGovernor};
        use twig_sim::fault::{FaultConfig, FaultPlan};

        let specs = vec![catalog::masstree(), catalog::moses()];
        let mut server = Server::new(ServerConfig::default(), specs.clone(), 41).unwrap();
        server.set_load_fraction(0, 0.3).unwrap();
        server.set_load_fraction(1, 0.3).unwrap();
        if faulty {
            let faults = FaultConfig {
                pmc_corrupt_rate: 0.05,
                actuation_reject_rate: 0.05,
                ..FaultConfig::default()
            };
            server.set_fault_plan(FaultPlan::new(faults, 43).unwrap());
        }
        let twig = TwigBuilder::new()
            .services(specs.clone())
            .agent(MaBdqConfig {
                buffer_capacity: 4_096,
                ..small_agent()
            })
            .epsilon(EpsilonSchedule::scaled(400))
            .reward(RewardConfig {
                floor: f64::NEG_INFINITY,
                ..RewardConfig::default()
            })
            .seed(42)
            .build()
            .unwrap();
        // The fault-free run must store every epoch: its watchdog never
        // parks the learner in the safe allocation. The faulty run's does,
        // briefly, so that most of the run still learns.
        let watchdog_epochs = if faulty { 5 } else { u32::MAX };
        let mut gov = SafetyGovernor::new(
            twig,
            GovernorConfig {
                services: specs,
                watchdog_epochs,
                initial_backoff_epochs: 2,
                max_backoff_epochs: 8,
                ..GovernorConfig::default()
            },
        )
        .unwrap();

        let bits = |rows: &[Vec<f32>]| -> Vec<u32> {
            rows.iter().flatten().map(|v| v.to_bits()).collect()
        };
        // The newest stored transition's next state, and whether an epoch
        // has gone by since without storing one.
        let mut tail: Option<Vec<u32>> = None;
        let mut idle = false;
        let (mut breaks, mut gaps) = (0, 0);
        for epoch in 0..2_400 {
            let assignments = gov.decide().unwrap();
            let mut report = server.step(&assignments).unwrap();
            if faulty && epoch % 41 == 40 && !report.telemetry.degraded() {
                report.services[0].p99_ms = f64::NAN;
            }
            let before = gov.inner().agent.buffer_len();
            gov.observe(&report).unwrap();
            let twig = gov.inner();
            if twig.agent.buffer_len() == before {
                idle = true;
                continue;
            }
            // What was stored is still in the manager's per-epoch buffers.
            if let Some(tail) = &tail {
                breaks += usize::from(bits(&twig.pending.states) != *tail);
                gaps += usize::from(idle);
            }
            tail = Some(bits(&twig.next_states));
            idle = false;
        }
        let twig = gov.inner();
        ChainRun {
            unlinked: twig.agent.replay_unlinked(),
            breaks,
            gaps,
            stored: twig.agent.buffer_len(),
            dropped: twig.agent.learner_stats().nonfinite_rejected,
            stats: gov.stats(),
        }
    }

    #[test]
    fn replay_links_break_exactly_where_an_epoch_stored_nothing() {
        // Every epoch observed: each record's next state is the following
        // record's state, and the orphan table stays empty.
        let clean = governed_chain_run(false);
        assert_eq!(clean.stored, 2_400);
        assert_eq!((clean.breaks, clean.gaps, clean.unlinked), (0, 0, 0));
        assert_eq!(
            clean.stats.safe_mode_epochs + clean.stats.degraded_epochs,
            0
        );

        // Degraded epochs, safe-mode epochs and refused transitions each
        // leave the record before them without a follower that starts where
        // it ended — and nothing else does.
        let faulty = governed_chain_run(true);
        assert!(faulty.stats.degraded_epochs > 50, "{:?}", faulty.stats);
        assert!(faulty.stats.safe_mode_epochs > 50, "{:?}", faulty.stats);
        assert!(faulty.dropped >= 10, "{} refused", faulty.dropped);
        assert!(faulty.stored < 2_300);
        assert!(faulty.breaks > 50);
        assert!(faulty.breaks <= faulty.gaps);
        assert_eq!(faulty.unlinked, faulty.breaks);
    }

    #[test]
    fn trait_object_usable() {
        let twig = build_twig(vec![catalog::masstree()]);
        let mut boxed: Box<dyn TaskManager> = Box::new(twig);
        assert_eq!(boxed.name(), "twig-s");
        assert!(boxed.decide().is_ok());
    }
}
