use crate::fault::{AppliedAssignment, FaultPlan, TelemetryHealth};
use crate::pmc::{self, Activity, PmcSample};
use crate::queue::ServiceQueue;
use crate::timing::{EpochTimings, TimingFaultPlan};
use crate::{CoreId, DvfsLadder, Frequency, LoadGenerator, PowerModel, ServiceSpec, SimError};
use std::collections::VecDeque;
use twig_stats::rng::Xoshiro256;
use twig_telemetry::{Phase, Telemetry};

/// Last-level-cache capacity per core in MiB: the default 18-core part
/// has 45 MiB, and other core counts scale it proportionally.
const LLC_MB_PER_CORE: f64 = 2.5;
/// Total-bandwidth utilisation above which memory contention sets in.
const BW_KNEE: f64 = 0.5;
/// Fractional request slowdown per remapped core for the epoch
/// following a core-allocation change (migration cost).
const MIGRATION_PENALTY: f64 = 0.12;
/// Client-side request timeout in seconds: queued requests older than
/// this are abandoned and counted as hard QoS violations. Bounds how
/// long an under-provisioning mistake can poison the queue.
const REQUEST_TIMEOUT_S: f64 = 2.0;

/// Platform configuration of the simulated socket.
///
/// Defaults model the paper's testbed: one 18-core Xeon E5-2695v4 socket
/// (the other socket runs the load clients, per the Tailbench loopback
/// methodology), DVFS from 1.2 to 2.0 GHz, and a 45 MiB LLC. The LLC is
/// 2.5 MiB per core, and the memory knee, migration cost, request
/// timeout and power model are the same for every socket.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Number of physical cores available to services.
    pub cores: usize,
    /// The DVFS ladder.
    pub dvfs: DvfsLadder,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig::with_platform(18, DvfsLadder::default())
    }
}

impl ServerConfig {
    /// Platform variant of the default socket: `cores` cores on `dvfs`
    /// (the LLC scales with the core count). The heterogeneous-fleet
    /// constructor for cluster simulations.
    ///
    /// # Examples
    ///
    /// ```
    /// use twig_sim::{DvfsLadder, ServerConfig};
    ///
    /// let ladder = DvfsLadder::new(1200, 100, 7).unwrap();
    /// let cfg = ServerConfig::with_platform(12, ladder);
    /// assert_eq!(cfg.cores, 12);
    /// assert_eq!(cfg.dvfs.max().mhz(), 1800);
    /// cfg.validate().unwrap();
    /// ```
    pub fn with_platform(cores: usize, dvfs: DvfsLadder) -> Self {
        ServerConfig { cores, dvfs }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for zero cores.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.cores == 0 {
            return Err(SimError::InvalidConfig {
                detail: "zero cores".into(),
            });
        }
        Ok(())
    }
}

/// One service's resource request for the next epoch: a set of cores and a
/// DVFS setting. Produced by task managers, consumed by [`Server::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// The cores the service should run on.
    pub cores: Vec<CoreId>,
    /// The requested DVFS setting for those cores.
    pub freq: Frequency,
}

impl Assignment {
    /// Creates an assignment.
    pub fn new(cores: Vec<CoreId>, freq: Frequency) -> Self {
        Assignment { cores, freq }
    }

    /// Convenience: the first `n` cores of the socket at `freq`.
    pub fn first_n(n: usize, freq: Frequency) -> Self {
        Assignment {
            cores: (0..n).map(CoreId).collect(),
            freq,
        }
    }

    /// Number of requested cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }
}

/// The resolved physical state of every core for one epoch: which services
/// share it (time-sliced) and at what frequency it runs.
///
/// When assignments overlap on a core, the core runs at the *highest*
/// requested frequency and is time-shared equally — the arbitration rule of
/// Section IV.
///
/// Stored as one flat claim table, so [`Server::step`] re-resolves it every
/// epoch into the same three buffers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CorePlan {
    services: usize,
    /// Per core: the highest frequency any claimant requested (meaningless
    /// while the core is parked).
    freq: Vec<Frequency>,
    /// Per core: how many claims share it (0 = parked).
    claimants: Vec<u32>,
    /// Core-major `cores × services`: how many times each service claims
    /// each core (a core listed twice in one assignment is two claims).
    claims: Vec<u32>,
}

impl CorePlan {
    /// Resolves per-service assignments into physical core states.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownCore`] for out-of-range cores and
    /// [`SimError::InvalidFrequency`] for frequencies off the ladder.
    pub fn from_assignments(
        assignments: &[Assignment],
        config: &ServerConfig,
    ) -> Result<Self, SimError> {
        let mut plan = CorePlan::default();
        plan.resolve(assignments.iter().map(|a| (&a.cores[..], a.freq)), config)?;
        Ok(plan)
    }

    /// [`from_assignments`](Self::from_assignments) into `self`, one
    /// `(cores, frequency)` request per service. On error the table is left
    /// half-filled and must be resolved again before it is read.
    fn resolve<'a>(
        &mut self,
        requests: impl ExactSizeIterator<Item = (&'a [CoreId], Frequency)>,
        config: &ServerConfig,
    ) -> Result<(), SimError> {
        self.services = requests.len();
        self.freq.clear();
        self.freq.resize(config.cores, config.dvfs.min());
        self.claimants.clear();
        self.claimants.resize(config.cores, 0);
        self.claims.clear();
        self.claims.resize(config.cores * self.services, 0);
        for (svc, (cores, freq)) in requests.enumerate() {
            config.dvfs.index_of(freq)?;
            for &core in cores {
                let c = core.index();
                if c >= config.cores {
                    return Err(SimError::UnknownCore {
                        core: c,
                        count: config.cores,
                    });
                }
                self.freq[c] = if self.claimants[c] == 0 {
                    freq
                } else {
                    self.freq[c].max(freq)
                };
                self.claimants[c] += 1;
                self.claims[c * self.services + svc] += 1;
            }
        }
        Ok(())
    }

    /// Per service: how many claims it holds on core `c`.
    fn claims_on(&self, c: usize) -> &[u32] {
        &self.claims[c * self.services..(c + 1) * self.services]
    }

    /// `(cpu_rate, effective_cores, max_core_speed)` for one service:
    /// `cpu_rate = Σ share × f_rel`, `effective_cores = Σ share`, over its
    /// claims in ascending core order.
    pub fn service_capacity(&self, svc: usize, dvfs: &DvfsLadder) -> (f64, f64, f64) {
        let mut cpu_rate = 0.0;
        let mut eff = 0.0;
        let mut max_speed: f64 = 0.0;
        for (c, &claimants) in self.claimants.iter().enumerate() {
            let mine = self.claims_on(c).get(svc).copied().unwrap_or(0);
            if mine == 0 {
                continue;
            }
            let share = 1.0 / f64::from(claimants);
            let rel = dvfs.relative_speed(self.freq[c]);
            for _ in 0..mine {
                cpu_rate += share * rel;
                eff += share;
                max_speed = max_speed.max(rel * share);
            }
        }
        (cpu_rate, eff, max_speed)
    }

    /// Number of active (non-parked) cores.
    pub fn active_cores(&self) -> usize {
        self.claimants.iter().filter(|&&n| n > 0).count()
    }

    /// Appends each active core's frequency and utilisation — the
    /// share-weighted busy fraction of the services on it, summed in service
    /// order — to `active`, in ascending core order.
    fn utilisations(&self, busy: &[f64], active: &mut Vec<(Frequency, f64)>) {
        for (c, &claimants) in self.claimants.iter().enumerate() {
            if claimants == 0 {
                continue;
            }
            let share = 1.0 / f64::from(claimants);
            let util: f64 = self
                .claims_on(c)
                .iter()
                .zip(busy)
                .flat_map(|(&n, &b)| std::iter::repeat_n(share * b, n as usize))
                .sum();
            active.push((self.freq[c], util.clamp(0.0, 1.0)));
        }
    }
}

/// Per-service observables for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceEpoch {
    /// Service name.
    pub name: String,
    /// Offered load in requests per second.
    pub offered_rps: f64,
    /// Offered load as a fraction of the service's maximum load.
    pub load_fraction: f64,
    /// Measured 99th-percentile latency in milliseconds (the QoS metric).
    pub p99_ms: f64,
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
    /// Requests completed this epoch.
    pub completed: usize,
    /// Arrivals dropped due to backlog saturation.
    pub dropped: u64,
    /// Requests still queued at the epoch boundary.
    pub queue_len: usize,
    /// The 11 Table-I counters for this service this epoch.
    pub pmcs: PmcSample,
    /// Cores the service was mapped to.
    pub core_count: usize,
    /// The service's requested DVFS setting.
    pub freq: Frequency,
    /// Cores that changed in the allocation relative to the previous epoch.
    pub migrated_cores: usize,
}

impl ServiceEpoch {
    /// QoS tardiness: measured p99 over the target (violation when > 1).
    pub fn tardiness(&self, qos_ms: f64) -> f64 {
        self.p99_ms / qos_ms
    }
}

/// Everything a task manager observes after one decision epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// Simulated time at the *start* of the epoch, in seconds.
    pub time_s: u64,
    /// Per-service observables.
    pub services: Vec<ServiceEpoch>,
    /// RAPL-style measured socket power (noisy), in watts.
    pub power_w: f64,
    /// Ground-truth socket power, in watts (for evaluation only).
    pub true_power_w: f64,
    /// Cumulative ground-truth energy since server creation, in joules.
    pub energy_j: f64,
    /// Total cores remapped across all services this epoch.
    pub migrations: usize,
    /// What the platform *actually applied* per service, which can diverge
    /// from the request under actuation faults (rejection, DVFS clamping,
    /// offline cores). Without a fault plan this echoes the request.
    pub actuation: Vec<AppliedAssignment>,
    /// Telemetry-health flags for this epoch (which readings were
    /// corrupted, delayed or glitched). Clean without a fault plan.
    pub telemetry: TelemetryHealth,
}

twig_telemetry::stats! {
    /// What the server simulated while telemetry was attached. Every field
    /// is mirrored into telemetry under the matching `sim.*` or `fault.*`
    /// counter.
    pub struct ServerStats {
        /// Epochs stepped.
        epochs => "sim.epochs",
        /// Cores remapped across all services.
        migrations => "sim.migrations",
        /// Per-service actuations the platform rejected.
        actuation_rejected => "fault.actuation_rejected",
        /// Per-service actuations whose DVFS request was clamped.
        dvfs_clamped => "fault.dvfs_clamped",
        /// Requested cores that were offline and dropped from an actuation.
        cores_lost_offline => "fault.cores_lost_offline",
        /// Per-service PMC readings corrupted.
        pmc_corruptions => "fault.pmc_corruptions",
        /// Epochs whose power reading glitched.
        power_glitches => "fault.power_glitches",
    }
}

/// The simulated server socket hosting latency-critical services.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Server {
    config: ServerConfig,
    /// Last-level-cache capacity in MiB ([`LLC_MB_PER_CORE`] × cores).
    llc_mb: f64,
    /// The socket power model.
    power: PowerModel,
    specs: Vec<ServiceSpec>,
    loads: Vec<LoadGenerator>,
    queues: Vec<ServiceQueue>,
    /// Core-major `cores × services`, like [`CorePlan`]'s claims: whether
    /// the service ran on the core last epoch (migration accounting).
    mapped: Vec<bool>,
    time_s: u64,
    energy_j: f64,
    rng: Xoshiro256,
    fault: Option<FaultPlan>,
    timing: Option<TimingFaultPlan>,
    timing_memo: Option<EpochTimings>,
    last_applied: Vec<Option<AppliedAssignment>>,
    last_pmcs: Vec<PmcSample>,
    pmc_history: Vec<VecDeque<PmcSample>>,
    stats: ServerStats,
    telemetry: Telemetry,
    metric_keys: Vec<MetricKeys>,
    scratch: EpochScratch,
}

/// What one epoch computes on its way to the report. The server keeps one
/// set and [`Server::step`] refills it, so a steady-state step allocates
/// nothing but the [`EpochReport`] it returns.
#[derive(Debug, Clone, Default)]
struct EpochScratch {
    plan: CorePlan,
    /// One service's completion latencies plus its drop and time-out
    /// fillers; cleared per service, grown to the largest epoch seen.
    latencies: Vec<f64>,
    fractions: Vec<f64>,
    rates: Vec<f64>,
    migrated: Vec<usize>,
    busy: Vec<f64>,
    active: Vec<(Frequency, f64)>,
}

/// One service's telemetry metric names, formatted when the service is
/// installed instead of four times per armed epoch.
#[derive(Debug, Clone)]
struct MetricKeys {
    p99_ms: String,
    load: String,
    dropped: String,
    qos_violations: String,
}

impl MetricKeys {
    fn new(service: &str) -> Self {
        MetricKeys {
            p99_ms: format!("sim.p99_ms.{service}"),
            load: format!("sim.load.{service}"),
            dropped: format!("sim.dropped.{service}"),
            qos_violations: format!("sim.qos_violations.{service}"),
        }
    }
}

impl Server {
    /// Creates a server hosting `specs`, with all load generators fixed at
    /// 50 % of each service's maximum load.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the configuration or any
    /// service specification is invalid, or no services are given.
    pub fn new(config: ServerConfig, specs: Vec<ServiceSpec>, seed: u64) -> Result<Self, SimError> {
        config.validate()?;
        if specs.is_empty() {
            return Err(SimError::InvalidConfig {
                detail: "no services".into(),
            });
        }
        for s in &specs {
            s.validate()?;
        }
        let n = specs.len();
        Ok(Server {
            mapped: vec![false; config.cores * n],
            metric_keys: specs.iter().map(|s| MetricKeys::new(&s.name)).collect(),
            llc_mb: LLC_MB_PER_CORE * config.cores as f64,
            power: PowerModel::default(),
            config,
            specs,
            loads: vec![LoadGenerator::default(); n],
            queues: vec![ServiceQueue::new(); n],
            time_s: 0,
            energy_j: 0.0,
            rng: Xoshiro256::seed_from_u64(seed),
            fault: None,
            timing: None,
            timing_memo: None,
            last_applied: vec![None; n],
            last_pmcs: vec![PmcSample::zero(); n],
            pmc_history: vec![VecDeque::new(); n],
            stats: ServerStats::default(),
            telemetry: Telemetry::disabled(),
            scratch: EpochScratch::default(),
        })
    }

    /// Attaches a telemetry handle: each [`step`](Self::step) then records
    /// the actuation phase timing, power/QoS gauges and fault-injection
    /// counters. Telemetry reads feed nothing back into the simulation, so
    /// outputs stay bit-identical to a run without it (the default is the
    /// inert [`Telemetry::disabled`]).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Installs a fault plan. Faults draw from the plan's own RNG stream,
    /// so a plan with all rates zero (or clearing it again with
    /// [`clear_fault_plan`](Self::clear_fault_plan)) leaves the simulation
    /// bit-identical to a fault-free run.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Removes any installed fault plan.
    pub fn clear_fault_plan(&mut self) {
        self.fault = None;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Installs a timing-fault plan (see [`crate::timing`]). Timing faults
    /// draw from the plan's own RNG stream and never perturb the workload
    /// simulation — they exist for drivers that model the *manager's* epoch
    /// latency around [`step`](Self::step).
    pub fn set_timing_plan(&mut self, plan: TimingFaultPlan) {
        self.timing = Some(plan);
        self.timing_memo = None;
    }

    /// This epoch's drawn timings, or `None` when no plan is installed.
    ///
    /// The draw is memoized: however many times a driver consults it before
    /// the next [`step`](Self::step), the plan's RNG advances exactly once
    /// per epoch, keeping the timing sequence a function of the epoch index
    /// alone. `step` itself draws any unconsumed epoch, so the sequence
    /// stays aligned even for drivers that only consult it sometimes.
    pub fn epoch_timings(&mut self) -> Option<EpochTimings> {
        let plan = self.timing.as_mut()?;
        Some(*self.timing_memo.get_or_insert_with(|| plan.draw_epoch()))
    }

    /// The platform configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The hosted service specifications.
    pub fn specs(&self) -> &[ServiceSpec] {
        &self.specs
    }

    /// Current simulated time in seconds.
    pub fn time_s(&self) -> u64 {
        self.time_s
    }

    /// Cumulative ground-truth energy in joules.
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Socket power with all cores parked.
    pub fn idle_power_w(&self) -> f64 {
        self.power.socket_power_with_parked(&[], self.config.cores)
    }

    /// The stress-microbenchmark peak power used to normalise Twig's power
    /// reward (Section III-B2).
    pub fn peak_power_w(&self) -> f64 {
        self.power.stress_peak_power(self.config.cores)
    }

    /// Pins service `index` to a fixed load fraction.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownService`] for a bad index and
    /// [`SimError::InvalidConfig`] for a fraction outside `[0, 1]`.
    pub fn set_load_fraction(&mut self, index: usize, fraction: f64) -> Result<(), SimError> {
        self.set_load_generator(index, LoadGenerator::fixed(fraction)?)
    }

    /// Installs a load generator for service `index`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownService`] for a bad index.
    pub fn set_load_generator(
        &mut self,
        index: usize,
        generator: LoadGenerator,
    ) -> Result<(), SimError> {
        if index >= self.specs.len() {
            return Err(SimError::UnknownService {
                index,
                count: self.specs.len(),
            });
        }
        self.loads[index] = generator;
        Ok(())
    }

    /// Swaps the service at `index` for a new one at runtime (the paper's
    /// "new, incoming service" scenario of the transfer-learning
    /// experiments). The queue is drained and the load generator kept.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownService`] for a bad index and
    /// [`SimError::InvalidConfig`] for an invalid spec.
    pub fn replace_service(&mut self, index: usize, spec: ServiceSpec) -> Result<(), SimError> {
        if index >= self.specs.len() {
            return Err(SimError::UnknownService {
                index,
                count: self.specs.len(),
            });
        }
        spec.validate()?;
        self.metric_keys[index] = MetricKeys::new(&spec.name);
        self.specs[index] = spec;
        self.queues[index].reset();
        for on in self.mapped.iter_mut().skip(index).step_by(self.specs.len()) {
            *on = false;
        }
        self.last_applied[index] = None;
        self.last_pmcs[index] = PmcSample::zero();
        self.pmc_history[index].clear();
        Ok(())
    }

    /// Advances the simulation by one decision epoch (1 simulated second),
    /// applying `assignments` (one per service) for its duration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AssignmentCount`] when the number of assignments
    /// is wrong, plus the errors of [`CorePlan::from_assignments`].
    pub fn step(&mut self, assignments: &[Assignment]) -> Result<EpochReport, SimError> {
        let services = self.specs.len();
        if assignments.len() != services {
            return Err(SimError::AssignmentCount {
                got: assignments.len(),
                want: services,
            });
        }
        let mut stopwatch = self.telemetry.stopwatch();
        let EpochScratch {
            plan,
            latencies,
            fractions,
            rates,
            migrated,
            busy,
            active,
        } = &mut self.scratch;
        // Resolving the request validates it, before any state moves.
        plan.resolve(
            assignments.iter().map(|a| (&a.cores[..], a.freq)),
            &self.config,
        )?;
        // Actuation stage: resolve what the platform actually applies. The
        // fault plan can reject a request (keeping the previous applied
        // assignment), clamp its DVFS setting or drop offline cores; with
        // no (or an all-zero) plan the request is applied verbatim and no
        // RNG stream is touched. From here on `actuation[svc]` is what
        // service `svc` runs on, and `plan` is resolved from it.
        let faults_on = self.fault.as_ref().is_some_and(FaultPlan::enabled);
        let actuation: Vec<AppliedAssignment> = if faults_on {
            let fault = self.fault.as_mut().expect("fault plan present");
            fault.begin_epoch(self.config.cores);
            assignments
                .iter()
                .zip(&self.last_applied)
                .map(|(a, last)| fault.actuate(&a.cores, a.freq, last.as_ref(), &self.config.dvfs))
                .collect()
        } else {
            assignments
                .iter()
                .map(|a| AppliedAssignment::verbatim(a.cores.clone(), a.freq))
                .collect()
        };
        if faults_on {
            plan.resolve(
                actuation.iter().map(|a| (&a.cores[..], a.freq)),
                &self.config,
            )?;
        }
        let t0 = self.time_s as f64;
        let t1 = t0 + 1.0;

        // Offered loads for this epoch.
        fractions.clear();
        fractions.extend(
            self.loads
                .iter()
                .map(|g| g.fraction_at(self.time_s).clamp(0.0, 1.0)),
        );
        rates.clear();
        rates.extend(
            fractions
                .iter()
                .zip(&self.specs)
                .map(|(f, s)| f * s.max_load_rps),
        );

        // Shared-resource pressure from all *active* services.
        let total_bw: f64 = self
            .specs
            .iter()
            .zip(fractions.iter())
            .zip(&actuation)
            .filter(|((_, _), a)| !a.cores.is_empty())
            .map(|((s, f), _)| s.bw_demand_frac * f)
            .sum();
        let bw_pressure = ((total_bw - BW_KNEE) / (1.0 - BW_KNEE)).max(0.0);
        let total_cache: f64 = self
            .specs
            .iter()
            .zip(fractions.iter())
            .zip(&actuation)
            .filter(|((_, f), a)| **f > 0.0 && !a.cores.is_empty())
            .map(|((s, _), _)| s.cache_mb)
            .sum();
        let cache_pressure = (total_cache / self.llc_mb - 1.0).max(0.0);

        // Migration accounting: cores each service gained or lost since the
        // previous epoch.
        migrated.clear();
        migrated.resize(services, 0);
        for (now, was) in plan
            .claims
            .chunks_exact(services)
            .zip(self.mapped.chunks_exact_mut(services))
        {
            for ((&claims, on), changed) in now.iter().zip(was).zip(migrated.iter_mut()) {
                *changed += usize::from((claims > 0) != *on);
                *on = claims > 0;
            }
        }

        // Per-service queue simulation.
        let mut service_epochs = Vec::with_capacity(services);
        busy.clear();
        let mut telemetry = TelemetryHealth::clean(services);
        for svc in 0..services {
            let spec = &self.specs[svc];
            let applied = &actuation[svc];
            let (cpu_rate, eff_cores, max_speed) = plan.service_capacity(svc, &self.config.dvfs);
            let mut contention =
                1.0 + spec.bw_sensitivity * bw_pressure + spec.cache_sensitivity * cache_pressure;
            if migrated[svc] > 0 && !applied.cores.is_empty() {
                let frac = migrated[svc] as f64 / applied.cores.len().max(1) as f64;
                contention *= 1.0 + MIGRATION_PENALTY * frac.min(1.0);
            }
            let duration_ms = spec.request_duration_ms(cpu_rate, eff_cores, max_speed, contention);
            latencies.clear();
            let stats = self.queues[svc].run_epoch_into(
                t0,
                t1,
                rates[svc],
                duration_ms,
                spec.demand_cv,
                REQUEST_TIMEOUT_S,
                &mut self.rng,
                latencies,
            );
            busy.push(stats.busy_s);

            // Tail latency, folding drops and client timeouts in as hard
            // misses.
            let drop_count = (stats.dropped as usize).min(5000);
            latencies.extend(std::iter::repeat_n(spec.qos_ms * 100.0, drop_count));
            let timeout_count = (stats.timed_out as usize).min(5000);
            latencies.extend(std::iter::repeat_n(
                REQUEST_TIMEOUT_S * 1000.0,
                timeout_count,
            ));
            let (p99, mean) = if latencies.is_empty() {
                if stats.queue_len > 0 {
                    // Nothing completed but work is waiting: report the age
                    // of the queue head as the observed tail.
                    let stuck = (t1 - (t0 - stats.queue_len as f64 / rates[svc].max(1.0))) * 1000.0;
                    (stuck.max(spec.qos_ms * 10.0), 0.0)
                } else {
                    (0.0, 0.0)
                }
            } else {
                // The mean is summed in completion order, before the
                // selection reorders the buffer.
                let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
                let p99 =
                    twig_stats::percentile(latencies, 99.0).expect("non-empty latency sample");
                (p99, mean)
            };

            // Counter synthesis from realised activity.
            let mix_cpu = spec.work_cpu_ms / spec.total_work_ms();
            let work_done_ms = stats.completed as f64 * spec.total_work_ms();
            let activity = Activity {
                weighted_busy_core_s: stats.busy_s * cpu_rate,
                busy_core_s: stats.busy_s * eff_cores,
                cpu_work_ms: work_done_ms * mix_cpu,
                mem_work_ms: work_done_ms * (1.0 - mix_cpu),
                cache_pressure,
                clock_ghz: applied.freq.ghz(),
            };
            let fresh = pmc::synthesize(spec, &activity, &mut self.rng);

            // Telemetry stage: the manager sees the fault plan's view of
            // the counters — possibly delayed by k epochs, possibly
            // corrupted (NaN/Inf/zero/stale). Ground-truth simulation state
            // is never touched.
            let pmcs = if faults_on {
                let fault = self.fault.as_mut().expect("fault plan present");
                let delay = fault.telemetry_delay();
                let history = &mut self.pmc_history[svc];
                history.push_back(fresh);
                while history.len() > delay.saturating_add(1) {
                    history.pop_front();
                }
                telemetry.delayed_epochs = history.len() - 1;
                let mut delivered = *history.front().expect("history non-empty");
                let previous = self.last_pmcs[svc];
                telemetry.pmc_faults[svc] = fault.corrupt_pmcs(&mut delivered, &previous);
                self.last_pmcs[svc] = delivered;
                delivered
            } else {
                fresh
            };

            service_epochs.push(ServiceEpoch {
                name: spec.name.clone(),
                offered_rps: rates[svc],
                load_fraction: fractions[svc],
                p99_ms: p99,
                mean_ms: mean,
                completed: stats.completed,
                dropped: stats.dropped + stats.timed_out,
                queue_len: stats.queue_len,
                pmcs,
                core_count: applied.cores.len(),
                freq: applied.freq,
                migrated_cores: migrated[svc],
            });
        }

        // Power: each active core's utilisation is the share-weighted busy
        // fraction of the services on it.
        active.clear();
        plan.utilisations(busy, active);
        let truth = self
            .power
            .socket_power_with_parked(active, self.config.cores);
        let mut measured = self.power.rapl_reading(truth, &mut self.rng);
        if faults_on {
            let fault = self.fault.as_mut().expect("fault plan present");
            let (reading, glitched) = fault.glitch_power(measured);
            measured = reading;
            telemetry.power_glitched = glitched;
            telemetry.offline_cores = fault.offline_cores().len();
        }
        self.energy_j += truth; // 1-second epoch

        for (last, applied) in self.last_applied.iter_mut().zip(&actuation) {
            match last {
                Some(last) => last.clone_from(applied),
                None => *last = Some(applied.clone()),
            }
        }
        let report = EpochReport {
            time_s: self.time_s,
            services: service_epochs,
            power_w: measured,
            true_power_w: truth,
            energy_j: self.energy_j,
            migrations: migrated.iter().sum(),
            actuation,
            telemetry,
        };
        self.record_epoch_telemetry(&report, stopwatch.lap_ms());
        self.time_s += 1;
        // Close out this epoch's timing draw: if the driver never consulted
        // it, draw (and discard) it now so the timing stream advances once
        // per epoch no matter what; either way the memo resets.
        if self.timing_memo.take().is_none() {
            if let Some(plan) = self.timing.as_mut() {
                plan.draw_epoch();
            }
        }
        Ok(report)
    }

    /// Feeds one epoch's observables into the attached telemetry handle.
    /// No-op (and allocation-free) when telemetry is disabled.
    fn record_epoch_telemetry(&mut self, report: &EpochReport, step_ms: f64) {
        if !self.telemetry.is_enabled() {
            return;
        }
        // Fault-injection events, as seen by the platform this epoch.
        let mut delta = ServerStats {
            epochs: 1,
            migrations: report.migrations as u64,
            pmc_corruptions: report.telemetry.pmc_faults.iter().flatten().count() as u64,
            power_glitches: u64::from(report.telemetry.power_glitched),
            ..ServerStats::default()
        };
        for applied in &report.actuation {
            delta.actuation_rejected += u64::from(applied.rejected);
            delta.dvfs_clamped += u64::from(applied.clamped);
            delta.cores_lost_offline += applied.cores_lost_offline as u64;
        }
        self.stats.add(&delta, &self.telemetry);
        let tl = &self.telemetry;
        tl.phase_add(report.time_s, Phase::Actuation, step_ms);
        tl.gauge_set("sim.power_w", report.power_w);
        tl.gauge_set("sim.true_power_w", report.true_power_w);
        tl.gauge_set("sim.energy_j", report.energy_j);
        tl.record("sim.power_w", report.true_power_w);
        for ((epoch, spec), keys) in report
            .services
            .iter()
            .zip(&self.specs)
            .zip(&self.metric_keys)
        {
            tl.record(&keys.p99_ms, epoch.p99_ms);
            tl.gauge_set(&keys.load, epoch.load_fraction);
            tl.counter_add(&keys.dropped, epoch.dropped);
            if epoch.p99_ms > spec.qos_ms {
                tl.counter_add(&keys.qos_violations, 1);
            }
        }
        tl.gauge_set("fault.offline_cores", report.telemetry.offline_cores as f64);
        tl.gauge_set(
            "fault.delayed_epochs",
            report.telemetry.delayed_epochs as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn max_freq() -> Frequency {
        ServerConfig::default().dvfs.max()
    }

    fn full_assignment(cores: usize) -> Assignment {
        Assignment::first_n(cores, max_freq())
    }

    fn run(server: &mut Server, assignments: &[Assignment], epochs: usize) -> Vec<EpochReport> {
        (0..epochs)
            .map(|_| server.step(assignments).unwrap())
            .collect()
    }

    #[test]
    fn single_service_meets_qos_at_max_load_full_alloc() {
        for spec in catalog::tailbench() {
            let name = spec.name.clone();
            let qos = spec.qos_ms;
            let mut server = Server::new(ServerConfig::default(), vec![spec], 1).unwrap();
            server.set_load_fraction(0, 1.0).unwrap();
            let reports = run(&mut server, &[full_assignment(18)], 60);
            // Skip warmup, average p99 over the tail.
            let p99s: Vec<f64> = reports[20..].iter().map(|r| r.services[0].p99_ms).collect();
            let mean_p99 = p99s.iter().sum::<f64>() / p99s.len() as f64;
            assert!(
                mean_p99 <= qos,
                "{name}: mean p99 {mean_p99:.3} ms > target {qos} ms at max load"
            );
        }
    }

    #[test]
    fn overload_violates_qos() {
        // 18 cores at max DVFS cannot sustain 1.4x the calibrated max load.
        let spec = catalog::masstree();
        let qos = spec.qos_ms;
        let mut spec_overloaded = spec;
        spec_overloaded.max_load_rps *= 1.4;
        let mut server = Server::new(ServerConfig::default(), vec![spec_overloaded], 2).unwrap();
        server.set_load_fraction(0, 1.0).unwrap();
        let reports = run(&mut server, &[full_assignment(18)], 60);
        let tail_mean: f64 = reports[30..]
            .iter()
            .map(|r| r.services[0].p99_ms)
            .sum::<f64>()
            / 30.0;
        assert!(tail_mean > qos, "p99 {tail_mean} should exceed {qos}");
    }

    #[test]
    fn fewer_cores_increase_latency() {
        let spec = catalog::xapian();
        let mut server = Server::new(ServerConfig::default(), vec![spec], 3).unwrap();
        server.set_load_fraction(0, 0.5).unwrap();
        let big = run(&mut server, &[full_assignment(18)], 40);
        let p99_big: f64 = big[10..].iter().map(|r| r.services[0].p99_ms).sum::<f64>() / 30.0;
        let small = run(&mut server, &[full_assignment(4)], 40);
        let p99_small: f64 = small[10..]
            .iter()
            .map(|r| r.services[0].p99_ms)
            .sum::<f64>()
            / 30.0;
        assert!(
            p99_small > p99_big,
            "4 cores ({p99_small:.2} ms) should be slower than 18 ({p99_big:.2} ms)"
        );
    }

    #[test]
    fn lower_frequency_increases_latency_and_saves_power() {
        let spec = catalog::img_dnn();
        let cfg = ServerConfig::default();
        let f_lo = cfg.dvfs.min();
        let mut server = Server::new(cfg, vec![spec], 4).unwrap();
        server.set_load_fraction(0, 0.5).unwrap();
        let fast = run(&mut server, &[full_assignment(10)], 40);
        let slow = run(&mut server, &[Assignment::first_n(10, f_lo)], 40);
        let p99 =
            |rs: &[EpochReport]| rs[10..].iter().map(|r| r.services[0].p99_ms).sum::<f64>() / 30.0;
        let pw = |rs: &[EpochReport]| rs[10..].iter().map(|r| r.true_power_w).sum::<f64>() / 30.0;
        assert!(p99(&slow) > p99(&fast));
        assert!(pw(&slow) < pw(&fast));
    }

    #[test]
    fn colocation_interference_hurts_sensitive_service() {
        // Masstree alone vs masstree colocated with bandwidth-hungry moses.
        let cfg = ServerConfig::default();
        let f = cfg.dvfs.max();
        let mut solo = Server::new(cfg.clone(), vec![catalog::masstree()], 5).unwrap();
        solo.set_load_fraction(0, 0.6).unwrap();
        let solo_assign = vec![Assignment::first_n(9, f)];
        let solo_reports = run(&mut solo, &solo_assign, 40);

        let mut colo = Server::new(cfg, vec![catalog::masstree(), catalog::moses()], 5).unwrap();
        colo.set_load_fraction(0, 0.6).unwrap();
        colo.set_load_fraction(1, 0.9).unwrap();
        let colo_assign = vec![
            Assignment::first_n(9, f),
            Assignment::new((9..18).map(CoreId).collect(), f),
        ];
        let colo_reports = run(&mut colo, &colo_assign, 40);

        let p99 =
            |rs: &[EpochReport]| rs[10..].iter().map(|r| r.services[0].p99_ms).sum::<f64>() / 30.0;
        assert!(
            p99(&colo_reports) > p99(&solo_reports) * 1.1,
            "colocated {:.3} vs solo {:.3}",
            p99(&colo_reports),
            p99(&solo_reports)
        );
    }

    #[test]
    fn overlapping_assignments_time_share() {
        let cfg = ServerConfig::default();
        let plan = CorePlan::from_assignments(
            &[
                Assignment::first_n(4, Frequency::from_mhz(1200)),
                Assignment::first_n(4, Frequency::from_mhz(2000)),
            ],
            &cfg,
        )
        .unwrap();
        // Both services get half of each core; the core runs at max request.
        let (rate0, eff0, _) = plan.service_capacity(0, &cfg.dvfs);
        let (rate1, eff1, _) = plan.service_capacity(1, &cfg.dvfs);
        assert!((eff0 - 2.0).abs() < 1e-9);
        assert!((eff1 - 2.0).abs() < 1e-9);
        // Shared cores run at 2.0 GHz (the max of the requests).
        assert!((rate0 - 2.0).abs() < 1e-9);
        assert!((rate1 - 2.0).abs() < 1e-9);
        assert_eq!(plan.active_cores(), 4);
    }

    #[test]
    fn migrations_counted_and_penalised() {
        let spec = catalog::masstree();
        let mut server = Server::new(ServerConfig::default(), vec![spec], 6).unwrap();
        server.set_load_fraction(0, 0.5).unwrap();
        let a1 = Assignment::first_n(6, max_freq());
        let a2 = Assignment::new((6..12).map(CoreId).collect(), max_freq());
        let r1 = server.step(std::slice::from_ref(&a1)).unwrap();
        assert_eq!(r1.migrations, 6); // cold start counts as placement
        let r2 = server.step(std::slice::from_ref(&a1)).unwrap();
        assert_eq!(r2.migrations, 0);
        let r3 = server.step(&[a2]).unwrap();
        assert_eq!(r3.migrations, 12); // 6 removed + 6 added
        let _ = r3;
    }

    #[test]
    fn power_scales_with_allocation() {
        let spec = catalog::moses();
        let mut server = Server::new(ServerConfig::default(), vec![spec], 7).unwrap();
        server.set_load_fraction(0, 0.8).unwrap();
        let many = run(&mut server, &[full_assignment(18)], 20);
        let few = run(
            &mut server,
            &[Assignment::first_n(6, Frequency::from_mhz(1400))],
            20,
        );
        let pw = |rs: &[EpochReport]| rs[5..].iter().map(|r| r.true_power_w).sum::<f64>() / 15.0;
        assert!(pw(&few) < pw(&many));
        // Energy is cumulative and increasing.
        assert!(few.last().unwrap().energy_j > many.last().unwrap().energy_j);
    }

    #[test]
    fn report_contains_pmcs_and_rates() {
        let mut server = Server::new(ServerConfig::default(), vec![catalog::xapian()], 8).unwrap();
        server.set_load_fraction(0, 0.5).unwrap();
        let reports = run(&mut server, &[full_assignment(18)], 5);
        let last = &reports[4];
        let svc = &last.services[0];
        assert_eq!(svc.name, "xapian");
        assert!((svc.offered_rps - 500.0).abs() < 1e-9);
        assert!(svc.pmcs[crate::CounterId::InstructionRetired] > 0.0);
        assert!(svc.completed > 300);
        assert_eq!(last.time_s, 4);
    }

    #[test]
    fn error_paths() {
        let mut server =
            Server::new(ServerConfig::default(), vec![catalog::masstree()], 9).unwrap();
        assert!(server.step(&[]).is_err());
        assert!(server
            .step(&[Assignment::new(vec![CoreId(40)], max_freq())])
            .is_err());
        assert!(server
            .step(&[Assignment::new(vec![CoreId(0)], Frequency::from_mhz(1250))])
            .is_err());
        assert!(server.set_load_fraction(3, 0.5).is_err());
        assert!(server.set_load_fraction(0, 1.5).is_err());
        assert!(Server::new(ServerConfig::default(), vec![], 0).is_err());
        let no_cores = ServerConfig::with_platform(0, DvfsLadder::default());
        assert!(Server::new(no_cores, vec![catalog::masstree()], 0).is_err());
    }

    #[test]
    fn llc_scales_with_cores() {
        for (cores, llc_mb) in [(12, 30.0), (18, 45.0)] {
            let cfg = ServerConfig::with_platform(cores, DvfsLadder::default());
            let server = Server::new(cfg, vec![catalog::masstree()], 1).unwrap();
            assert_eq!(server.llc_mb, llc_mb);
        }
    }

    #[test]
    fn replace_service_resets_queue() {
        let mut server = Server::new(
            ServerConfig::default(),
            vec![catalog::moses(), catalog::masstree()],
            10,
        )
        .unwrap();
        server.set_load_fraction(0, 0.9).unwrap();
        // Starve service 0 to build a queue.
        let starve = vec![
            Assignment::new(vec![], max_freq()),
            Assignment::first_n(2, max_freq()),
        ];
        for _ in 0..5 {
            server.step(&starve).unwrap();
        }
        server.replace_service(0, catalog::xapian()).unwrap();
        assert_eq!(server.specs()[0].name, "xapian");
        let r = server
            .step(&[
                full_assignment(9),
                Assignment::new((9..12).map(CoreId).collect(), max_freq()),
            ])
            .unwrap();
        // Queue was drained on replacement.
        assert!(r.services[0].queue_len < 1000);
    }

    #[test]
    fn disabled_fault_plan_is_bit_identical() {
        use crate::fault::{FaultConfig, FaultPlan};
        let run = |with_plan: bool| {
            let mut server =
                Server::new(ServerConfig::default(), vec![catalog::masstree()], 13).unwrap();
            if with_plan {
                server.set_fault_plan(FaultPlan::new(FaultConfig::default(), 99).unwrap());
            }
            server.set_load_fraction(0, 0.6).unwrap();
            run_epochs(&mut server, 20)
        };
        fn run_epochs(server: &mut Server, epochs: usize) -> Vec<(u64, u64, u64)> {
            (0..epochs)
                .map(|_| {
                    let r = server
                        .step(&[Assignment::first_n(9, ServerConfig::default().dvfs.max())])
                        .unwrap();
                    (
                        r.services[0].p99_ms.to_bits(),
                        r.power_w.to_bits(),
                        r.services[0].pmcs.as_array()[0].to_bits(),
                    )
                })
                .collect()
        }
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn actuation_faults_reported_and_applied() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut server =
            Server::new(ServerConfig::default(), vec![catalog::masstree()], 14).unwrap();
        server.set_fault_plan(
            FaultPlan::new(
                FaultConfig {
                    actuation_reject_rate: 1.0,
                    ..FaultConfig::default()
                },
                3,
            )
            .unwrap(),
        );
        server.set_load_fraction(0, 0.5).unwrap();
        let a1 = Assignment::first_n(6, max_freq());
        let r1 = server.step(std::slice::from_ref(&a1)).unwrap();
        // First epoch: no prior applied state, so the request goes through.
        assert!(!r1.actuation[0].rejected);
        assert_eq!(r1.services[0].core_count, 6);
        // Every later request is rejected; the platform stays on epoch 1's
        // applied assignment, and the report says so.
        let a2 = Assignment::new((10..18).map(CoreId).collect(), max_freq());
        let r2 = server.step(&[a2]).unwrap();
        assert!(r2.actuation[0].rejected);
        assert_eq!(
            r2.actuation[0].cores,
            (0..6).map(CoreId).collect::<Vec<_>>()
        );
        assert_eq!(r2.services[0].core_count, 6);
        assert_eq!(r2.migrations, 0, "rejected remap causes no migration");
    }

    #[test]
    fn pmc_corruption_surfaces_in_telemetry_health() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut server =
            Server::new(ServerConfig::default(), vec![catalog::masstree()], 15).unwrap();
        server.set_fault_plan(
            FaultPlan::new(
                FaultConfig {
                    pmc_corrupt_rate: 1.0,
                    ..FaultConfig::default()
                },
                4,
            )
            .unwrap(),
        );
        server.set_load_fraction(0, 0.5).unwrap();
        for _ in 0..10 {
            let r = server.step(&[full_assignment(9)]).unwrap();
            assert!(r.telemetry.degraded());
            assert!(r.telemetry.service_degraded(0));
            assert!(r.telemetry.pmc_faults[0].is_some());
        }
    }

    #[test]
    fn telemetry_delay_serves_old_samples() {
        use crate::fault::{FaultConfig, FaultPlan};
        // Two servers, same workload seed: one with a 3-epoch telemetry
        // delay. The delayed server's epoch-t PMCs must equal the fresh
        // server's epoch-(t-3) PMCs.
        let mut fresh = Server::new(ServerConfig::default(), vec![catalog::xapian()], 16).unwrap();
        let mut delayed =
            Server::new(ServerConfig::default(), vec![catalog::xapian()], 16).unwrap();
        delayed.set_fault_plan(
            FaultPlan::new(
                FaultConfig {
                    telemetry_delay_epochs: 3,
                    ..FaultConfig::default()
                },
                5,
            )
            .unwrap(),
        );
        fresh.set_load_fraction(0, 0.5).unwrap();
        delayed.set_load_fraction(0, 0.5).unwrap();
        let a = [full_assignment(9)];
        let fresh_pmcs: Vec<_> = (0..10)
            .map(|_| fresh.step(&a).unwrap().services[0].pmcs)
            .collect();
        let delayed_reports: Vec<_> = (0..10).map(|_| delayed.step(&a).unwrap()).collect();
        for t in 3..10 {
            assert_eq!(delayed_reports[t].services[0].pmcs, fresh_pmcs[t - 3]);
            assert_eq!(delayed_reports[t].telemetry.delayed_epochs, 3);
        }
    }

    #[test]
    fn offline_cores_never_strand_a_service() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut server = Server::new(ServerConfig::default(), vec![catalog::moses()], 17).unwrap();
        server.set_fault_plan(
            FaultPlan::new(
                FaultConfig {
                    core_fail_rate: 0.8,
                    max_offline_cores: 17,
                    ..FaultConfig::default()
                },
                6,
            )
            .unwrap(),
        );
        server.set_load_fraction(0, 0.5).unwrap();
        for _ in 0..40 {
            let r = server.step(&[full_assignment(18)]).unwrap();
            assert!(r.services[0].core_count >= 1);
            assert_eq!(
                r.services[0].core_count + r.actuation[0].cores_lost_offline,
                18
            );
        }
    }

    #[test]
    fn power_glitch_leaves_truth_untouched() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut server =
            Server::new(ServerConfig::default(), vec![catalog::img_dnn()], 18).unwrap();
        server.set_fault_plan(
            FaultPlan::new(
                FaultConfig {
                    power_glitch_rate: 1.0,
                    ..FaultConfig::default()
                },
                7,
            )
            .unwrap(),
        );
        server.set_load_fraction(0, 0.5).unwrap();
        let mut last_energy = 0.0;
        for _ in 0..10 {
            let r = server.step(&[full_assignment(9)]).unwrap();
            assert!(r.telemetry.power_glitched);
            assert!(r.power_w == 0.0 || r.power_w > r.true_power_w * 2.0);
            assert!(r.true_power_w > 0.0, "ground truth survives the glitch");
            assert!(r.energy_j > last_energy, "energy accounting uses truth");
            last_energy = r.energy_j;
        }
    }

    #[test]
    fn epoch_timings_drawn_once_per_epoch_and_aligned() {
        let config = crate::timing::TimingFaultConfig {
            learn_chunk_base_ms: 5.0,
            learn_spike_rate: 0.5,
            learn_spike_ms: 100.0,
            clock_jitter_ms: 30.0,
            ..crate::timing::TimingFaultConfig::default()
        };
        // Reference: the raw per-epoch draw sequence from an identical plan.
        let mut reference = TimingFaultPlan::new(config.clone(), 77).unwrap();
        let expected: Vec<EpochTimings> = (0..6).map(|_| reference.draw_epoch()).collect();

        let spec = catalog::masstree();
        let mut server = Server::new(ServerConfig::default(), vec![spec], 9).unwrap();
        assert!(server.epoch_timings().is_none(), "no plan installed yet");
        server.set_timing_plan(TimingFaultPlan::new(config, 77).unwrap());
        let a = [full_assignment(18)];
        for (epoch, want) in expected.iter().enumerate() {
            match epoch {
                // Consulted repeatedly: memoized to one draw.
                0 | 3 => {
                    let first = server.epoch_timings().unwrap();
                    assert_eq!(first, server.epoch_timings().unwrap());
                    assert_eq!(first, *want, "epoch {epoch} diverged");
                }
                // Consulted once.
                1 | 4 => assert_eq!(server.epoch_timings().unwrap(), *want),
                // Never consulted: step() must burn the draw to keep the
                // stream aligned with the epoch index.
                _ => {}
            }
            server.step(&a).unwrap();
        }
    }

    #[test]
    fn timing_plan_never_perturbs_the_workload() {
        let run_epochs = |with_plan: bool| {
            let spec = catalog::masstree();
            let mut server = Server::new(ServerConfig::default(), vec![spec], 4).unwrap();
            server.set_load_fraction(0, 0.7).unwrap();
            if with_plan {
                server.set_timing_plan(
                    TimingFaultPlan::new(
                        crate::timing::TimingFaultConfig {
                            pmc_base_ms: 50.0,
                            pmc_spike_rate: 0.9,
                            pmc_spike_ms: 2000.0,
                            clock_stuck_rate: 0.5,
                            ..crate::timing::TimingFaultConfig::default()
                        },
                        123,
                    )
                    .unwrap(),
                );
            }
            run(&mut server, &[full_assignment(12)], 20)
                .iter()
                .map(|r| (r.services[0].p99_ms.to_bits(), r.power_w.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            run_epochs(false),
            run_epochs(true),
            "timing faults must not touch the workload stream"
        );
    }

    #[test]
    fn zero_load_reports_zero_latency() {
        let mut server =
            Server::new(ServerConfig::default(), vec![catalog::img_dnn()], 11).unwrap();
        server.set_load_fraction(0, 0.0).unwrap();
        let r = server.step(&[full_assignment(4)]).unwrap();
        assert_eq!(r.services[0].p99_ms, 0.0);
        assert_eq!(r.services[0].completed, 0);
    }
}
