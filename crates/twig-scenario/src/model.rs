use crate::ScenarioError;

/// Shorthand: a semantic-validation failure.
fn bad(detail: impl Into<String>) -> ScenarioError {
    ScenarioError::invalid(detail)
}
use twig_cluster::{ClusterFaultConfig, FedFaultConfig, FederateConfig};
use twig_sim::{catalog, DvfsLadder, FaultConfig, LoadGenerator, ServiceSpec, TimingFaultConfig};
use twig_stats::fields::Row;

/// One parsed scenario: everything a [`crate::ScenarioRunner`] needs to
/// compile a deterministic run, plus the properties it must exhibit.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (also the corpus file stem).
    pub name: String,
    /// Optional human description; empty = absent.
    pub desc: String,
    /// Workload seed: the run is a pure function of the scenario text.
    pub seed: u64,
    /// Control epochs to run (1 simulated second each).
    pub epochs: u64,
    /// QoS/power are measured over the trailing `measure` epochs.
    pub measure: u64,
    /// Ungoverned pre-roll epochs that fill the replay buffer (server
    /// topology only).
    pub warmup: u64,
    /// Run segments separated by crash + checkpoint-recovery boundaries
    /// (1 = no crashes; server topology only).
    pub segments: u64,
    /// Where the scenario runs: one server or a cluster.
    pub topology: Topology,
    /// The colocated services, in declaration order.
    pub services: Vec<ServiceDef>,
    /// Server fault plan (PMC corruption, actuation rejection, ...).
    pub faults: Option<FaultSection>,
    /// Server timing-fault plan; its presence switches the runner to the
    /// deadline-scheduler-metered control loop.
    pub timing: Option<TimingSection>,
    /// Cluster fault plan (crashes, partitions, migrations, ...).
    pub cluster_faults: Option<ClusterFaultSection>,
    /// Federated-learning plane: periodic weight-exchange rounds plus
    /// their seeded fault plan (cluster topology only).
    pub federate: Option<FederateSection>,
    /// Properties the run must exhibit; at least one.
    pub asserts: Vec<Assertion>,
}

/// The platform a scenario compiles onto.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// A single simulated socket driven by one governed Twig agent stack.
    Server {
        /// Socket size.
        cores: usize,
        /// DVFS ladder as `(min_mhz, step_mhz, levels)`.
        dvfs: (u32, u32, usize),
    },
    /// A `twig-cluster` fleet with replicated placement and failover.
    Cluster {
        /// Replicas per service.
        replication: usize,
        /// Missed heartbeats before the balancer suspects a node.
        suspect_after: u32,
        /// Node platforms as `(cores, min_mhz, step_mhz, levels)`.
        nodes: Vec<(usize, u32, u32, usize)>,
    },
}

/// One service in the scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceDef {
    /// Unique id within the scenario (becomes the spec name).
    pub id: String,
    /// Where the service's calibration comes from.
    pub spec: SpecSource,
    /// The service's load trajectory (maps 1:1 onto the simulator's
    /// [`LoadGenerator`]).
    pub load: LoadGenerator,
    /// Epoch at which the service starts receiving traffic (0 = from the
    /// start). Before it, offered load is zero.
    pub arrive: u64,
    /// Epoch at which the service's traffic drains to zero, if any.
    pub depart: Option<u64>,
    /// Mid-run churn swap: at the given epoch the running service is
    /// replaced by a new one (queue drained, agent transferred), modelling
    /// the paper's incoming-service handoff. Server topology only.
    pub swap: Option<(u64, SpecSource)>,
}

/// Where a [`ServiceSpec`] comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecSource {
    /// One of the calibrated Table II catalog entries, verbatim.
    Catalog {
        /// Catalog name (`masstree`, `xapian`, ...).
        name: String,
    },
    /// A synthetic service derived from a catalog template with its
    /// capacity and QoS target overridden — how catalogs grow to dozens
    /// of services beyond Table II.
    Synthetic {
        /// Catalog template providing the interference profile.
        template: String,
        /// Maximum load, requests per second.
        rps: f64,
        /// QoS target (p99), milliseconds.
        qos_ms: f64,
    },
}

impl SpecSource {
    /// Resolves the source into a concrete, validated [`ServiceSpec`]
    /// named `id`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] for an unknown catalog name or
    /// a synthetic spec the simulator rejects.
    pub fn resolve(&self, id: &str) -> Result<ServiceSpec, ScenarioError> {
        let mut spec = match self {
            SpecSource::Catalog { name } | SpecSource::Synthetic { template: name, .. } => {
                catalog::by_name(name).ok_or_else(|| {
                    ScenarioError::invalid(format!("service \"{id}\": unknown catalog `{name}`"))
                })?
            }
        };
        spec.name = id.to_string();
        if let SpecSource::Synthetic { rps, qos_ms, .. } = self {
            spec.max_load_rps = *rps;
            spec.qos_ms = *qos_ms;
        }
        spec.validate().map_err(|e| {
            ScenarioError::invalid(format!("service \"{id}\": derived spec invalid: {e}"))
        })?;
        Ok(spec)
    }
}

/// Seeded server fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSection {
    /// Seed for the plan's private RNG.
    pub seed: u64,
    /// The rates (all-zero = inject nothing).
    pub config: FaultConfig,
}

/// Seeded server timing-fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingSection {
    /// Seed for the plan's private RNG.
    pub seed: u64,
    /// Phase latencies, spike rates and clock faults.
    pub config: TimingFaultConfig,
}

/// Seeded cluster fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterFaultSection {
    /// Seed for the plan's private RNG.
    pub seed: u64,
    /// Rates plus exact scripted events.
    pub config: ClusterFaultConfig,
}

/// Federated-learning plane settings plus its seeded fault plan
/// (cluster topology only).
#[derive(Debug, Clone, PartialEq)]
pub struct FederateSection {
    /// Seed for the federation fault plan's private RNG.
    pub seed: u64,
    /// Epochs between weight-exchange round starts.
    pub period: u64,
    /// Minimum accepted payloads per service before a merge happens.
    pub quorum: usize,
    /// Collection window, epochs, before stragglers are cut off.
    pub timeout: u64,
    /// Federation fault rates plus exact scripted per-round events.
    pub config: FedFaultConfig,
}

impl FederateSection {
    /// The three [`FederateConfig`] knobs the grammar exposes, under their
    /// `.scn` keys; a `federate` section lists them ahead of the
    /// [`FedFaultConfig::FIELDS`] records.
    pub const KNOBS: &'static [Row<FederateConfig>] = twig_stats::field_rows![
        "period" => round_period: Count;
        "quorum" => min_quorum: Count;
        "timeout" => collect_timeout: Count;
    ];

    /// The [`FederateConfig`] this section compiles to: the three
    /// DSL-exposed knobs over library defaults for the rest.
    pub fn to_config(&self) -> FederateConfig {
        FederateConfig {
            round_period: self.period,
            min_quorum: self.quorum,
            collect_timeout: self.timeout,
            ..FederateConfig::default()
        }
    }
}

/// One property the finished run must exhibit, evaluated in the style of
/// the chaos and timing suites.
#[derive(Debug, Clone, PartialEq)]
pub enum Assertion {
    /// Measured QoS guarantee (percentage of measured, active epochs
    /// meeting the p99 target) must be at least `pct` — for one service
    /// (`Some(id)`) or every service (`None`).
    QosFloor {
        /// Service id, or `None` for all services.
        service: Option<String>,
        /// Minimum guarantee, percent.
        pct: f64,
    },
    /// Mean true power over the measured window stays at or under the cap
    /// (server topology only).
    PowerCap {
        /// Cap, watts.
        watts: f64,
    },
    /// Total dropped requests stay at or under this fraction of total
    /// arrivals over the whole run.
    DropCap {
        /// Maximum dropped fraction in `[0, 1]`.
        fraction: f64,
    },
    /// The deadline scheduler's load-shedding ladder never went deeper
    /// than `depth` (requires a `timing` section).
    MaxShedDepth {
        /// Maximum permitted ladder depth.
        depth: u8,
    },
    /// No decision was ever computed from a stale PMC window (server,
    /// requires `timing`) / no node actuated a stale placement (cluster).
    ZeroStaleActuations,
    /// The balancer's request-conservation books balanced every epoch
    /// (cluster topology only).
    Conserved,
    /// Every failover was detected within `epochs` epochs of the crash
    /// (cluster topology only).
    MaxFailover {
        /// Maximum detection latency, epochs.
        epochs: u64,
    },
    /// At least this many federation rounds committed a merge (requires a
    /// `federate` section).
    FedRounds {
        /// Minimum committed rounds.
        committed: u64,
    },
    /// The federation screening ladder rejected at least this many
    /// payloads — corrupt, wrong-shape, non-finite or Byzantine-divergent
    /// (requires a `federate` section).
    FedScreened {
        /// Minimum rejected payloads.
        rejected: u64,
    },
    /// Running the scenario twice produces bit-identical outcomes.
    Deterministic,
}

impl Scenario {
    /// Semantic validation: everything the grammar cannot express.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] describing the first violation.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.is_empty() {
            return Err(bad("empty scenario name"));
        }
        if self.epochs == 0 {
            return Err(bad("epochs must be >= 1"));
        }
        if self.measure == 0 || self.measure > self.epochs {
            return Err(bad(format!(
                "measure {} outside 1..={} epochs",
                self.measure, self.epochs
            )));
        }
        if self.segments == 0 || self.segments > self.epochs {
            return Err(bad(format!(
                "segments {} outside 1..={} epochs",
                self.segments, self.epochs
            )));
        }
        if self.services.is_empty() {
            return Err(bad("no services declared"));
        }
        if self.asserts.is_empty() {
            return Err(bad(
                "no assertions declared — a scenario must assert something",
            ));
        }
        for (i, s) in self.services.iter().enumerate() {
            if self.services[..i].iter().any(|o| o.id == s.id) {
                return Err(bad(format!("duplicate service id \"{}\"", s.id)));
            }
            s.validate(self.epochs)?;
            s.spec.resolve(&s.id)?;
            if let Some((_, src)) = &s.swap {
                src.resolve(&s.id)?;
            }
        }
        self.validate_topology()?;
        for a in &self.asserts {
            self.validate_assertion(a)?;
        }
        if let Some(f) = &self.faults {
            f.config
                .validate()
                .map_err(|e| bad(format!("faults: {e}")))?;
        }
        if let Some(t) = &self.timing {
            t.config
                .validate()
                .map_err(|e| bad(format!("timing: {e}")))?;
        }
        if let Some(c) = &self.cluster_faults {
            c.config
                .validate()
                .map_err(|e| bad(format!("cluster_faults: {e}")))?;
        }
        if let Some(f) = &self.federate {
            f.to_config()
                .validate()
                .map_err(|e| bad(format!("federate: {e}")))?;
            f.config
                .validate()
                .map_err(|e| bad(format!("federate: {e}")))?;
        }
        Ok(())
    }

    fn validate_topology(&self) -> Result<(), ScenarioError> {
        match &self.topology {
            Topology::Server { cores, dvfs } => {
                if *cores < 2 {
                    return Err(bad(format!("server needs >= 2 cores, got {cores}")));
                }
                DvfsLadder::new(dvfs.0, dvfs.1, dvfs.2)
                    .map_err(|e| bad(format!("server dvfs: {e}")))?;
                if self.cluster_faults.is_some() {
                    return Err(bad("cluster_faults section on a server scenario"));
                }
                if self.federate.is_some() {
                    return Err(bad("federate section on a server scenario"));
                }
                if self.timing.is_some() && self.segments > 1 {
                    return Err(bad("timing and segments > 1 cannot be combined"));
                }
            }
            Topology::Cluster {
                replication,
                suspect_after,
                nodes,
            } => {
                if nodes.is_empty() {
                    return Err(bad("cluster has no nodes"));
                }
                for (i, n) in nodes.iter().enumerate() {
                    if n.0 < 2 {
                        return Err(bad(format!("node {i} needs >= 2 cores, got {}", n.0)));
                    }
                    DvfsLadder::new(n.1, n.2, n.3)
                        .map_err(|e| bad(format!("node {i} dvfs: {e}")))?;
                }
                if *replication == 0 || *replication > nodes.len() {
                    return Err(bad(format!(
                        "replication {replication} outside 1..={} nodes",
                        nodes.len()
                    )));
                }
                if *suspect_after == 0 {
                    return Err(bad("suspect_after must be >= 1"));
                }
                if self.faults.is_some() || self.timing.is_some() {
                    return Err(bad("faults/timing sections are server-only"));
                }
                if self.segments > 1 || self.warmup > 0 {
                    return Err(bad("segments/warmup are server-only"));
                }
                if self.services.iter().any(|s| s.swap.is_some()) {
                    return Err(bad("swap churn is server-only"));
                }
            }
        }
        Ok(())
    }

    fn validate_assertion(&self, a: &Assertion) -> Result<(), ScenarioError> {
        let is_cluster = matches!(self.topology, Topology::Cluster { .. });
        match a {
            Assertion::QosFloor { service, pct } => {
                if !(0.0..=100.0).contains(pct) {
                    return Err(bad(format!("qos_floor {pct} outside [0, 100]")));
                }
                if let Some(id) = service {
                    if !self.services.iter().any(|s| &s.id == id) {
                        return Err(bad(format!("qos_floor names unknown service \"{id}\"")));
                    }
                }
            }
            Assertion::PowerCap { watts } => {
                if is_cluster {
                    return Err(bad("power_cap is server-only"));
                }
                if !watts.is_finite() || *watts <= 0.0 {
                    return Err(bad(format!("power_cap {watts} not positive")));
                }
            }
            Assertion::DropCap { fraction } => {
                if !(0.0..=1.0).contains(fraction) {
                    return Err(bad(format!("drop_cap {fraction} outside [0, 1]")));
                }
            }
            Assertion::MaxShedDepth { .. } => {
                if self.timing.is_none() {
                    return Err(bad("max_shed_depth requires a timing section"));
                }
            }
            Assertion::ZeroStaleActuations => {
                if !is_cluster && self.timing.is_none() {
                    return Err(bad(
                        "zero_stale_actuations requires a timing section on a server scenario",
                    ));
                }
            }
            Assertion::Conserved | Assertion::MaxFailover { .. } => {
                if !is_cluster {
                    return Err(bad("conserved/max_failover are cluster-only"));
                }
            }
            Assertion::FedRounds { .. } | Assertion::FedScreened { .. } => {
                if self.federate.is_none() {
                    return Err(bad("fed_rounds/fed_screened require a federate section"));
                }
            }
            Assertion::Deterministic => {}
        }
        Ok(())
    }
}

impl ServiceDef {
    fn validate(&self, epochs: u64) -> Result<(), ScenarioError> {
        if self.id.is_empty() {
            return Err(bad("empty service id"));
        }
        if self.arrive >= epochs {
            return Err(bad(format!(
                "service \"{}\": arrive {} >= epochs {epochs}",
                self.id, self.arrive
            )));
        }
        if let Some(d) = self.depart {
            if d <= self.arrive || d > epochs {
                return Err(bad(format!(
                    "service \"{}\": depart {d} outside arrive {}..={epochs}",
                    self.id, self.arrive
                )));
            }
        }
        if let Some((e, _)) = &self.swap {
            if *e == 0 || *e >= epochs {
                return Err(bad(format!(
                    "service \"{}\": swap epoch {e} outside 1..{epochs}",
                    self.id
                )));
            }
            if self.depart.is_some() {
                return Err(bad(format!(
                    "service \"{}\": swap and depart are mutually exclusive",
                    self.id
                )));
            }
        }
        Ok(())
    }

    /// Is the service receiving traffic at 0-based epoch `e`?
    pub fn active_at(&self, e: u64) -> bool {
        e >= self.arrive && self.depart.is_none_or(|d| e < d)
    }
}
