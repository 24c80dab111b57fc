//! Compiles a parsed [`Scenario`] onto the existing `twig-sim` /
//! `twig-cluster` machinery and executes it.
//!
//! A run is a pure function of the scenario text: the runner uses only
//! the scenario's own seeds and the disabled-telemetry fast path, so the
//! same `.scn` file produces bit-identical outcomes anywhere in a fleet,
//! at any `--jobs`. Server scenarios drive a governed Twig agent stack
//! (scheduler-metered when a `timing` section is present, with
//! crash/recovery boundaries when `segments > 1`); cluster scenarios
//! drive a `twig-cluster` fleet with per-epoch demand compiled from the
//! declared load shapes.

use crate::model::{Assertion, Scenario, Topology};
use crate::ScenarioError;
use twig_cluster::{
    AgentTuning, Cluster, ClusterConfig, ClusterFaultPlan, CoordinatorConfig, FedFaultPlan,
    NodePlatform,
};
use twig_core::{
    recover, EpochScheduler, GovernorConfig, RewardConfig, SafetyGovernor, SchedulerConfig,
    ScratchStore, SimClock, TaskManager, Twig, TwigBuilder,
};
use twig_platform::{Platform, SimPlatform};
use twig_rl::{EpsilonSchedule, MaBdqConfig};
use twig_sim::{
    DvfsLadder, FaultPlan, LoadGenerator, Server, ServerConfig, ServiceSpec, TimingFaultPlan,
};
use twig_telemetry::Telemetry;

/// Per-service slice of a finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOutcome {
    /// Service id from the scenario.
    pub id: String,
    /// Measured epochs in which the service was active.
    pub measured_epochs: u64,
    /// Measured active epochs meeting the p99 target (idle epochs count
    /// as met — an idle service cannot violate QoS).
    pub qos_met_epochs: u64,
    /// Mean p99 over measured active epochs that served traffic, ms.
    pub mean_p99_ms: f64,
    /// Requests completed over the whole run.
    pub completed: u64,
    /// Requests dropped over the whole run.
    pub dropped: u64,
}

impl ServiceOutcome {
    /// QoS guarantee over the measured window, percent (100 when the
    /// service was never measured active).
    pub fn qos_pct(&self) -> f64 {
        if self.measured_epochs == 0 {
            100.0
        } else {
            100.0 * self.qos_met_epochs as f64 / self.measured_epochs as f64
        }
    }
}

/// Cluster-only slice of a finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOutcome {
    /// The conservation check held every epoch.
    pub conserved: bool,
    /// `cluster.conservation_failures` at the end of the run.
    pub conservation_failures: u64,
    /// `cluster.stale_actuations` at the end of the run.
    pub stale_actuations: u64,
    /// Failovers detected.
    pub failovers: u64,
    /// Worst crash-to-suspicion latency, epochs (0 when no failover).
    pub max_failover_latency: u64,
    /// Whole-server crashes injected.
    pub crashes: u64,
    /// Requests routed over the run.
    pub routed: u64,
    /// Requests bounced off unreachable replicas.
    pub bounced: u64,
    /// Nodes alive after the final epoch.
    pub live_nodes_final: usize,
    /// `fed.rounds_committed` at the end of the run (0 without a
    /// `federate` section).
    pub fed_rounds_committed: u64,
    /// Payloads the federation screening ladder rejected — corrupt,
    /// wrong-shape, non-finite or Byzantine-divergent.
    pub fed_rejected: u64,
    /// Cold replicas re-warmed by a federated merge.
    pub fed_cold_transfers: u64,
}

/// One evaluated property.
#[derive(Debug, Clone, PartialEq)]
pub struct AssertionResult {
    /// The assertion, in canonical DSL form.
    pub desc: String,
    /// Did the run exhibit the property?
    pub pass: bool,
    /// Measured-vs-required diagnostic.
    pub detail: String,
}

/// Everything a finished scenario run produced. Plain counts and floats —
/// `Send`, comparable, and digestible for bit-identity checks.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Epochs executed (excluding warm-up).
    pub epochs: u64,
    /// Per-service results, in declaration order.
    pub services: Vec<ServiceOutcome>,
    /// Mean true power over the measured window, watts (0 for cluster
    /// runs — node power is not aggregated).
    pub mean_power_w: f64,
    /// Total true energy over the run, joules (server runs).
    pub energy_j: f64,
    /// Deepest load-shedding ladder rung reached (scheduler-metered runs).
    pub max_shed_depth: u8,
    /// Deadline misses (scheduler-metered runs).
    pub deadline_misses: u64,
    /// Decisions computed from a stale PMC window — structurally zero.
    pub stale_decisions: u64,
    /// Stale PMC windows encountered (and routed around).
    pub stale_windows: u64,
    /// Segment boundaries recovered from a checkpoint.
    pub recoveries_restored: u64,
    /// Segment boundaries that fell through to a cold start.
    pub recoveries_cold: u64,
    /// Cluster-only results.
    pub cluster: Option<ClusterOutcome>,
    /// FNV-1a digest of every field above — two runs are bit-identical
    /// iff their digests match.
    pub digest: u64,
    /// Evaluated assertions, in scenario order (empty until [`ScenarioRunner::run`]
    /// finishes).
    pub assertions: Vec<AssertionResult>,
    /// Every assertion passed.
    pub passed: bool,
}

/// Executes scenarios. Construction validates; [`ScenarioRunner::run`]
/// executes and evaluates the scenario's assertions.
#[derive(Debug, Clone)]
pub struct ScenarioRunner {
    scenario: Scenario,
}

fn run_err(e: impl std::fmt::Display) -> ScenarioError {
    ScenarioError::run(e.to_string())
}

impl ScenarioRunner {
    /// Wraps a validated scenario.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] when the scenario does not
    /// validate.
    pub fn new(scenario: Scenario) -> Result<Self, ScenarioError> {
        scenario.validate()?;
        Ok(ScenarioRunner { scenario })
    }

    /// The scenario being run.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Executes the scenario and evaluates its assertions.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Run`] when compilation or execution fails;
    /// failing *assertions* are reported in the outcome, not as errors.
    pub fn run(&self) -> Result<ScenarioOutcome, ScenarioError> {
        let mut outcome = self.execute()?;
        let rerun_digest = if self.scenario.asserts.contains(&Assertion::Deterministic) {
            Some(self.execute()?.digest)
        } else {
            None
        };
        outcome.assertions = self
            .scenario
            .asserts
            .iter()
            .map(|a| evaluate(a, &outcome, rerun_digest))
            .collect();
        outcome.passed = outcome.assertions.iter().all(|r| r.pass);
        Ok(outcome)
    }

    fn execute(&self) -> Result<ScenarioOutcome, ScenarioError> {
        match &self.scenario.topology {
            Topology::Server { cores, dvfs } => self.execute_server(*cores, *dvfs),
            Topology::Cluster {
                replication,
                suspect_after,
                nodes,
            } => self.execute_cluster(*replication, *suspect_after, nodes),
        }
    }

    fn resolve_specs(&self) -> Result<Vec<ServiceSpec>, ScenarioError> {
        self.scenario
            .services
            .iter()
            .map(|s| s.spec.resolve(&s.id))
            .collect()
    }

    fn execute_server(
        &self,
        cores: usize,
        dvfs: (u32, u32, usize),
    ) -> Result<ScenarioOutcome, ScenarioError> {
        let s = &self.scenario;
        let ladder = DvfsLadder::new(dvfs.0, dvfs.1, dvfs.2).map_err(run_err)?;
        let mut specs = self.resolve_specs()?;
        let mut qos: Vec<f64> = specs.iter().map(|sp| sp.qos_ms).collect();
        let cfg = ServerConfig::with_platform(cores, ladder.clone());
        let mut server = Server::new(cfg, specs.clone(), s.seed).map_err(run_err)?;
        for (i, svc) in s.services.iter().enumerate() {
            let gen = if svc.arrive == 0 {
                svc.load.clone()
            } else {
                LoadGenerator::fixed(0.0).map_err(run_err)?
            };
            server.set_load_generator(i, gen).map_err(run_err)?;
        }
        if let Some(f) = &s.faults {
            server.set_fault_plan(FaultPlan::new(f.config.clone(), f.seed).map_err(run_err)?);
        }
        if let Some(t) = &s.timing {
            server
                .set_timing_plan(TimingFaultPlan::new(t.config.clone(), t.seed).map_err(run_err)?);
        }

        // All server-topology control flows through the Platform trait
        // from here on; SimPlatform::step is byte-identical to
        // Server::step, and server-only controls (churn, loads) stay
        // reachable through server_mut().
        let mut platform = SimPlatform::new(server);

        // ε reaches its floor as the measurement window opens.
        let learn_epochs = s.warmup + s.epochs - s.measure;
        let mut twig = build_twig(specs.clone(), learn_epochs, s.seed, s.timing.is_some())?;
        for _ in 0..s.warmup {
            let a = twig.decide().map_err(run_err)?;
            let r = platform.step(&a).map_err(run_err)?;
            twig.observe(&r).map_err(run_err)?;
        }
        let gov_config = GovernorConfig {
            services: specs.clone(),
            cores,
            dvfs: ladder.clone(),
            ..GovernorConfig::default()
        };
        let mut gov = SafetyGovernor::new(twig, gov_config.clone()).map_err(run_err)?;

        // Scheduler-metered loop state (present iff a timing section is).
        let mut metered = if s.timing.is_some() {
            let sched = EpochScheduler::new(SchedulerConfig::default(), SimClock::new())
                .map_err(run_err)?;
            Some((sched, gov.safe_assignments()))
        } else {
            None
        };

        // Crash/recovery boundaries between segments.
        let scratch = if s.segments > 1 {
            Some(ScratchStore::create(&format!("scenario-{}", s.name), 3).map_err(run_err)?)
        } else {
            None
        };
        let seg_len = s.epochs / s.segments;

        let mut acc = Accumulator::new(s);
        for e in 0..s.epochs {
            // Segment boundary: checkpoint, "crash", recover a fresh stack.
            if let Some(store) = &scratch {
                if e != 0 && seg_len != 0 && e % seg_len == 0 && e / seg_len < s.segments {
                    let bytes = gov.inner().checkpoint_bytes();
                    store.write(&bytes).map_err(run_err)?;
                    let mut fresh =
                        build_twig(specs.clone(), learn_epochs, s.seed, s.timing.is_some())?;
                    let report = recover(store, &mut fresh, &Telemetry::disabled());
                    if report.recovered() {
                        acc.recoveries_restored += 1;
                    } else {
                        acc.recoveries_cold += 1;
                    }
                    let mut config = gov_config.clone();
                    config.services = specs.clone();
                    gov = SafetyGovernor::new(fresh, config).map_err(run_err)?;
                }
            }

            // Churn events for this epoch.
            for (i, svc) in s.services.iter().enumerate() {
                if svc.arrive == e && e != 0 {
                    platform
                        .server_mut()
                        .set_load_generator(i, svc.load.clone())
                        .map_err(run_err)?;
                }
                if svc.depart == Some(e) {
                    platform
                        .server_mut()
                        .set_load_generator(i, LoadGenerator::fixed(0.0).map_err(run_err)?)
                        .map_err(run_err)?;
                }
                if let Some((se, src)) = &svc.swap {
                    if *se == e {
                        let new_spec = src.resolve(&svc.id)?;
                        platform
                            .server_mut()
                            .replace_service(i, new_spec.clone())
                            .map_err(run_err)?;
                        gov.transfer_service(i, new_spec.clone()).map_err(run_err)?;
                        qos[i] = new_spec.qos_ms;
                        specs[i] = new_spec;
                    }
                }
            }

            let r = match &mut metered {
                None => {
                    let a = gov.decide().map_err(run_err)?;
                    platform.actuate(&a).map_err(run_err)?;
                    let r = platform.observe_epoch().map_err(run_err)?;
                    gov.observe(&r).map_err(run_err)?;
                    r
                }
                Some((sched, last_validated)) => {
                    let e = sched
                        .metered_epoch(platform.server_mut(), &mut gov, last_validated)
                        .map_err(run_err)?;
                    if e.decided && !e.fresh {
                        acc.stale_decisions += 1;
                    }
                    e.report
                }
            };
            acc.absorb(s, e, &r, &qos);
        }

        if let Some((sched, _)) = &metered {
            let st = sched.stats();
            acc.max_shed_depth = st.max_ladder_depth;
            acc.deadline_misses = st.misses;
            acc.stale_windows = st.stale_windows;
        }
        Ok(acc.into_outcome(s, None))
    }

    fn execute_cluster(
        &self,
        replication: usize,
        suspect_after: u32,
        nodes: &[(usize, u32, u32, usize)],
    ) -> Result<ScenarioOutcome, ScenarioError> {
        let s = &self.scenario;
        let specs = self.resolve_specs()?;
        let platforms = nodes
            .iter()
            .map(|n| {
                Ok(NodePlatform {
                    cores: n.0,
                    dvfs: DvfsLadder::new(n.1, n.2, n.3).map_err(run_err)?,
                })
            })
            .collect::<Result<Vec<_>, ScenarioError>>()?;
        let demand_at = |e: u64| -> Vec<u64> {
            s.services
                .iter()
                .zip(&specs)
                .map(|(svc, spec)| {
                    if svc.active_at(e) {
                        (svc.load.fraction_at(e) * spec.max_load_rps).round() as u64
                    } else {
                        0
                    }
                })
                .collect()
        };
        let config = ClusterConfig {
            nodes: platforms,
            services: specs.clone(),
            demand_rps: demand_at(0),
            replication,
            suspect_after_misses: suspect_after,
            coordinator: CoordinatorConfig::default(),
            tuning: AgentTuning {
                learn_epochs: s.epochs,
                ..AgentTuning::default()
            },
            seed: s.seed,
        };
        let plan = match &s.cluster_faults {
            Some(cf) => ClusterFaultPlan::new(cf.config.clone(), cf.seed).map_err(run_err)?,
            None => ClusterFaultPlan::disabled(),
        };
        let mut cluster = Cluster::new(config, plan, Telemetry::disabled()).map_err(run_err)?;
        if let Some(f) = &s.federate {
            let fed_plan = FedFaultPlan::new(f.config.clone(), f.seed).map_err(run_err)?;
            cluster
                .enable_federation(f.to_config(), fed_plan)
                .map_err(run_err)?;
        }

        let mut acc = Accumulator::new(s);
        let mut conserved = true;
        let mut live_final = 0;
        for e in 0..s.epochs {
            for (i, rps) in demand_at(e).into_iter().enumerate() {
                cluster.set_demand(i, rps).map_err(run_err)?;
            }
            let r = cluster.step().map_err(run_err)?;
            conserved &= r.conserved;
            live_final = r.live_nodes;
            if e >= s.epochs - s.measure {
                for (i, svc) in s.services.iter().enumerate() {
                    if !svc.active_at(e) {
                        continue;
                    }
                    let se = &r.services[i];
                    let out = &mut acc.services[i];
                    out.measured_epochs += 1;
                    if se.routed_rps == 0 || se.qos_met {
                        out.qos_met_epochs += 1;
                    }
                    if se.routed_rps > 0 {
                        out.p99_sum += se.worst_p99_ms;
                        out.p99_count += 1;
                    }
                    out.completed += se.routed_rps;
                }
            }
        }
        let stats = cluster.stats();
        let fed = cluster.fed_stats();
        let cluster_outcome = ClusterOutcome {
            conserved,
            conservation_failures: stats.conservation_failures,
            stale_actuations: stats.stale_actuations,
            failovers: stats.failovers,
            max_failover_latency: cluster
                .failover_latencies()
                .iter()
                .copied()
                .max()
                .unwrap_or(0),
            crashes: stats.crashes,
            routed: stats.routed_rps,
            bounced: stats.bounced_rps,
            live_nodes_final: live_final,
            fed_rounds_committed: fed.rounds_committed,
            fed_rejected: fed.rejected_corrupt
                + fed.rejected_shape
                + fed.rejected_nonfinite
                + fed.rejected_divergent,
            fed_cold_transfers: fed.cold_transfers,
        };
        Ok(acc.into_outcome(s, Some(cluster_outcome)))
    }
}

/// The small-but-real learning stack scenarios and the timing and platform
/// suites run: a 32/24 network on 16-transition batches, θ = 1, and an ε
/// anneal that ends at `learn_epochs`. `metered` is for a driver that owns
/// the learning phase (the deadline scheduler): `observe` then runs pure
/// exploitation, so the policy stays deterministic under a fixed seed and
/// the driver can split the step into budgeted micro-batches.
///
/// # Errors
///
/// Returns [`ScenarioError::Run`] when Twig construction fails.
pub fn build_twig(
    specs: Vec<ServiceSpec>,
    learn_epochs: u64,
    seed: u64,
    metered: bool,
) -> Result<Twig, ScenarioError> {
    // Plain loops compress the paper's gradient-step budget into the
    // scenario's short learning phase by replaying the buffer more per
    // epoch, with `observe` taking the steps; metered loops run pure
    // exploitation because the scheduler owns the learning phase chunk by
    // chunk via `train_step_budgeted`. The ε anneal ends at `learn_epochs`
    // — the caller sizes that to land before the measurement window, so
    // measured epochs see the exploitation floor.
    let learn_epochs = learn_epochs.max(1);
    let replay_ratio = if metered {
        1
    } else {
        (10_000 / learn_epochs).clamp(1, 3) as u32
    };
    TwigBuilder::new()
        .services(specs)
        .epsilon(EpsilonSchedule::new(
            0.1,
            0.01,
            learn_epochs * 3 / 5,
            learn_epochs,
        ))
        .agent(MaBdqConfig {
            trunk_hidden: vec![32, 24],
            head_hidden: 16,
            batch_size: 16,
            buffer_capacity: 4096,
            target_update_every: 40,
            ..MaBdqConfig::default()
        })
        .reward(RewardConfig {
            theta: 1.0,
            ..RewardConfig::default()
        })
        .train_steps_per_epoch(replay_ratio)
        .action_stickiness(0.02)
        .pure_exploitation(metered)
        .seed(seed)
        .build()
        .map_err(run_err)
}

/// Mid-run per-service accumulation.
struct ServiceAcc {
    id: String,
    measured_epochs: u64,
    qos_met_epochs: u64,
    p99_sum: f64,
    p99_count: u64,
    completed: u64,
    dropped: u64,
}

/// Mid-run accumulation shared by both topologies.
struct Accumulator {
    services: Vec<ServiceAcc>,
    power_sum: f64,
    power_epochs: u64,
    energy_j: f64,
    max_shed_depth: u8,
    deadline_misses: u64,
    stale_decisions: u64,
    stale_windows: u64,
    recoveries_restored: u64,
    recoveries_cold: u64,
}

impl Accumulator {
    fn new(s: &Scenario) -> Self {
        Accumulator {
            services: s
                .services
                .iter()
                .map(|svc| ServiceAcc {
                    id: svc.id.clone(),
                    measured_epochs: 0,
                    qos_met_epochs: 0,
                    p99_sum: 0.0,
                    p99_count: 0,
                    completed: 0,
                    dropped: 0,
                })
                .collect(),
            power_sum: 0.0,
            power_epochs: 0,
            energy_j: 0.0,
            max_shed_depth: 0,
            deadline_misses: 0,
            stale_decisions: 0,
            stale_windows: 0,
            recoveries_restored: 0,
            recoveries_cold: 0,
        }
    }

    /// Absorbs one server epoch report (0-based epoch `e`).
    fn absorb(&mut self, s: &Scenario, e: u64, r: &twig_sim::EpochReport, qos: &[f64]) {
        self.energy_j = r.energy_j;
        let measured = e >= s.epochs - s.measure;
        if measured {
            self.power_sum += r.true_power_w;
            self.power_epochs += 1;
        }
        for (i, svc) in s.services.iter().enumerate() {
            let se = &r.services[i];
            let out = &mut self.services[i];
            out.completed += se.completed as u64;
            out.dropped += se.dropped;
            if measured && svc.active_at(e) {
                out.measured_epochs += 1;
                if se.completed == 0 || se.p99_ms <= qos[i] {
                    out.qos_met_epochs += 1;
                }
                if se.completed > 0 {
                    out.p99_sum += se.p99_ms;
                    out.p99_count += 1;
                }
            }
        }
    }

    fn into_outcome(self, s: &Scenario, cluster: Option<ClusterOutcome>) -> ScenarioOutcome {
        let services: Vec<ServiceOutcome> = self
            .services
            .into_iter()
            .map(|a| ServiceOutcome {
                id: a.id,
                measured_epochs: a.measured_epochs,
                qos_met_epochs: a.qos_met_epochs,
                mean_p99_ms: if a.p99_count > 0 {
                    a.p99_sum / a.p99_count as f64
                } else {
                    0.0
                },
                completed: a.completed,
                dropped: a.dropped,
            })
            .collect();
        let mut out = ScenarioOutcome {
            name: s.name.clone(),
            epochs: s.epochs,
            services,
            mean_power_w: if self.power_epochs > 0 {
                self.power_sum / self.power_epochs as f64
            } else {
                0.0
            },
            energy_j: self.energy_j,
            max_shed_depth: self.max_shed_depth,
            deadline_misses: self.deadline_misses,
            stale_decisions: self.stale_decisions,
            stale_windows: self.stale_windows,
            recoveries_restored: self.recoveries_restored,
            recoveries_cold: self.recoveries_cold,
            cluster,
            digest: 0,
            assertions: Vec::new(),
            passed: false,
        };
        out.digest = digest(&out);
        out
    }
}

/// FNV-1a over every outcome field, floats by bit pattern.
fn digest(o: &ScenarioOutcome) -> u64 {
    let mut h = Fnv::new();
    h.str(&o.name);
    h.u64(o.epochs);
    for s in &o.services {
        h.str(&s.id);
        h.u64(s.measured_epochs);
        h.u64(s.qos_met_epochs);
        h.f64(s.mean_p99_ms);
        h.u64(s.completed);
        h.u64(s.dropped);
    }
    h.f64(o.mean_power_w);
    h.f64(o.energy_j);
    h.u64(o.max_shed_depth as u64);
    h.u64(o.deadline_misses);
    h.u64(o.stale_decisions);
    h.u64(o.stale_windows);
    h.u64(o.recoveries_restored);
    h.u64(o.recoveries_cold);
    if let Some(c) = &o.cluster {
        h.u64(c.conserved as u64);
        h.u64(c.conservation_failures);
        h.u64(c.stale_actuations);
        h.u64(c.failovers);
        h.u64(c.max_failover_latency);
        h.u64(c.crashes);
        h.u64(c.routed);
        h.u64(c.bounced);
        h.u64(c.live_nodes_final as u64);
        h.u64(c.fed_rounds_committed);
        h.u64(c.fed_rejected);
        h.u64(c.fed_cold_transfers);
    }
    h.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        for b in s.as_bytes() {
            self.byte(*b);
        }
        self.byte(0xff);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Evaluates one assertion against a finished outcome.
fn evaluate(a: &Assertion, o: &ScenarioOutcome, rerun_digest: Option<u64>) -> AssertionResult {
    let mut desc = String::new();
    crate::emit::emit_assert_line(&mut desc, a);
    let (pass, detail) = match a {
        Assertion::QosFloor { service, pct } => {
            let worst = o
                .services
                .iter()
                .filter(|s| service.as_ref().is_none_or(|id| &s.id == id))
                .map(|s| (s.qos_pct(), s.id.clone()))
                .min_by(|a, b| a.0.total_cmp(&b.0));
            match worst {
                None => (false, "no matching service".to_string()),
                Some((got, id)) => (
                    got >= *pct,
                    format!("worst guarantee {got:.1}% (\"{id}\") vs floor {pct}%"),
                ),
            }
        }
        Assertion::PowerCap { watts } => (
            o.mean_power_w <= *watts,
            format!("mean power {:.1} W vs cap {watts} W", o.mean_power_w),
        ),
        Assertion::DropCap { fraction } => {
            let dropped: u64 = o.services.iter().map(|s| s.dropped).sum();
            let total: u64 = o.services.iter().map(|s| s.completed + s.dropped).sum();
            let got = if total > 0 {
                dropped as f64 / total as f64
            } else {
                0.0
            };
            (
                got <= *fraction,
                format!("dropped {got:.4} of arrivals vs cap {fraction}"),
            )
        }
        Assertion::MaxShedDepth { depth } => (
            o.max_shed_depth <= *depth,
            format!("deepest ladder rung {} vs bound {depth}", o.max_shed_depth),
        ),
        Assertion::ZeroStaleActuations => match &o.cluster {
            Some(c) => (
                c.stale_actuations == 0,
                format!("{} stale placement actuations", c.stale_actuations),
            ),
            None => (
                o.stale_decisions == 0,
                format!(
                    "{} decisions on stale windows ({} stale windows seen)",
                    o.stale_decisions, o.stale_windows
                ),
            ),
        },
        Assertion::Conserved => match &o.cluster {
            Some(c) => (
                c.conserved && c.conservation_failures == 0,
                format!(
                    "conserved every epoch: {}, failures: {}",
                    c.conserved, c.conservation_failures
                ),
            ),
            None => (false, "not a cluster run".to_string()),
        },
        Assertion::MaxFailover { epochs } => match &o.cluster {
            Some(c) => (
                c.max_failover_latency <= *epochs,
                format!(
                    "worst failover {} epochs vs bound {epochs} ({} failovers)",
                    c.max_failover_latency, c.failovers
                ),
            ),
            None => (false, "not a cluster run".to_string()),
        },
        Assertion::FedRounds { committed } => match &o.cluster {
            Some(c) => (
                c.fed_rounds_committed >= *committed,
                format!(
                    "{} committed federation rounds vs floor {committed}",
                    c.fed_rounds_committed
                ),
            ),
            None => (false, "not a cluster run".to_string()),
        },
        Assertion::FedScreened { rejected } => match &o.cluster {
            Some(c) => (
                c.fed_rejected >= *rejected,
                format!(
                    "{} payloads rejected by the screening ladder vs floor {rejected}",
                    c.fed_rejected
                ),
            ),
            None => (false, "not a cluster run".to_string()),
        },
        Assertion::Deterministic => match rerun_digest {
            Some(d) => (
                d == o.digest,
                format!("digest {:016x} vs rerun {:016x}", o.digest, d),
            ),
            None => (false, "no rerun digest".to_string()),
        },
    };
    AssertionResult {
        desc: desc.trim_end().to_string(),
        pass,
        detail,
    }
}
