//! The real-OS backend: [`LinuxPlatform`] actuates through cgroup-v2
//! `cpuset.cpus` files and cpufreq sysfs knobs, and observes through
//! seq-stamped counter files and a RAPL-style energy counter — all via
//! the [`Fs`] abstraction, so the same code runs against [`crate::RealFs`]
//! on a live kernel and against [`crate::FakeFs`] offline.
//!
//! # The reconciliation ladder
//!
//! Real sysfs writes fail partially and silently: `EPERM`/`EBUSY`
//! rejections, torn writes that land a prefix, governors that clamp a
//! requested frequency, delayed visibility. Every actuation therefore
//! climbs a ladder:
//!
//! 1. **write** the canonical value;
//! 2. **read back** and compare — a verbatim match is *verified*;
//! 3. on mismatch, **retry** within the scheduler's shared
//!    [`RETRY_BUDGET`] (a cpufreq read-back that parses to a *lower*
//!    setting is an accepted governor clamp, reported but not retried —
//!    retrying a policy decision is futile);
//! 4. an exhausted budget is a **divergence**: the platform adopts the
//!    OS's read-back as the applied truth (falling back to the last known
//!    state when unreadable), marks the assignment `rejected`, and raises
//!    [`TelemetryHealth::delayed_epochs`] so the `SafetyGovernor` routes
//!    the epoch through `observe_degraded` / `decide_fallback`.
//!
//! Counter files carry a monotonic sequence stamp; a non-advancing stamp,
//! unparsable content or a missing file serves the previous sample and
//! flags the service [`PmcFaultKind::Stale`]. A non-monotonic or
//! unreadable energy counter keeps the last power reading and flags
//! `power_glitched`. Nothing in this module panics on OS misbehaviour —
//! every fault ends verified, reported as a divergence, or routed to the
//! governor.

use crate::cpulist;
use crate::fs::Fs;
use crate::{Platform, PlatformError};
use std::collections::BTreeSet;
use twig_core::RETRY_BUDGET;
use twig_sim::{
    AppliedAssignment, Assignment, CoreId, DvfsLadder, EpochReport, Frequency, PmcFaultKind,
    PmcSample, ServiceEpoch, ServiceSpec, TelemetryHealth, NUM_COUNTERS,
};
use twig_telemetry::Telemetry;

/// Where the Linux backend's files live. Defaults match a stock host
/// (cgroup-v2, cpufreq, RAPL) with Twig's delegated cgroup at
/// `/sys/fs/cgroup/twig`. [`LinuxLayout::under`] re-roots everything for
/// tests and fakes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinuxLayout {
    /// Twig's delegated cgroup-v2 subtree; each service is a child cgroup
    /// with a `cpuset.cpus` file.
    pub cgroup_root: String,
    /// The cpufreq sysfs root holding `cpu{N}/cpufreq/scaling_setspeed`.
    pub cpufreq_root: String,
    /// Where the per-service metric exporters publish seq-stamped `pmc`
    /// and `latency` files.
    pub metrics_root: String,
    /// The cumulative package-energy counter, in microjoules.
    pub energy_file: String,
}

impl Default for LinuxLayout {
    fn default() -> Self {
        LinuxLayout {
            cgroup_root: "/sys/fs/cgroup/twig".to_string(),
            cpufreq_root: "/sys/devices/system/cpu".to_string(),
            metrics_root: "/run/twig".to_string(),
            energy_file: "/sys/class/powercap/intel-rapl:0/energy_uj".to_string(),
        }
    }
}

impl LinuxLayout {
    /// The default layout re-rooted under one prefix — the shape used
    /// with [`crate::FakeFs`] trees and temp-dir tests.
    pub fn under(root: &str) -> Self {
        let root = root.trim_end_matches('/');
        LinuxLayout {
            cgroup_root: format!("{root}/sys/fs/cgroup/twig"),
            cpufreq_root: format!("{root}/sys/devices/system/cpu"),
            metrics_root: format!("{root}/run/twig"),
            energy_file: format!("{root}/sys/class/powercap/intel-rapl:0/energy_uj"),
        }
    }

    /// The `cpuset.cpus` file of a service's cgroup.
    pub fn cpuset_path(&self, service: &str) -> String {
        format!("{}/{service}/cpuset.cpus", self.cgroup_root)
    }

    /// A core's userspace-governor setpoint file. The backend reads the
    /// same file back for verification; a layout pointing read-back at
    /// `scaling_cur_freq` instead is a one-line change on a real kernel.
    pub fn freq_path(&self, core: usize) -> String {
        format!("{}/cpu{core}/cpufreq/scaling_setspeed", self.cpufreq_root)
    }

    /// A service's seq-stamped PMC sample file
    /// (`seq v0 .. v10`, the Table-I counters).
    pub fn pmc_path(&self, service: &str) -> String {
        format!("{}/{service}/pmc", self.metrics_root)
    }

    /// A service's seq-stamped latency-observable file
    /// (`seq offered_rps load_fraction p99_ms mean_ms completed dropped queue_len`).
    pub fn latency_path(&self, service: &str) -> String {
        format!("{}/{service}/latency", self.metrics_root)
    }
}

/// Configuration for [`LinuxPlatform`].
#[derive(Debug, Clone)]
pub struct LinuxConfig {
    /// File locations.
    pub layout: LinuxLayout,
    /// Number of physical cores.
    pub cores: usize,
    /// The DVFS ladder requests must stay on.
    pub dvfs: DvfsLadder,
    /// The hosted services, in assignment order.
    pub specs: Vec<ServiceSpec>,
}

impl LinuxConfig {
    /// A config with the default layout.
    pub fn new(cores: usize, dvfs: DvfsLadder, specs: Vec<ServiceSpec>) -> Self {
        LinuxConfig {
            layout: LinuxLayout::default(),
            cores,
            dvfs,
            specs,
        }
    }

    fn validate(&self) -> Result<(), PlatformError> {
        let fail = |detail: String| Err(PlatformError::Config { detail });
        if self.cores == 0 {
            return fail("cores must be positive".to_string());
        }
        if self.specs.is_empty() {
            return fail("at least one service is required".to_string());
        }
        let mut names = BTreeSet::new();
        for spec in &self.specs {
            let name = spec.name.as_str();
            let path_safe = !name.is_empty()
                && name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.');
            if !path_safe {
                return fail(format!("service name {name:?} is not path-safe"));
            }
            if !names.insert(name) {
                return fail(format!("duplicate service name {name:?}"));
            }
        }
        Ok(())
    }
}

twig_telemetry::stats! {
    /// Lifetime counters of everything the backend did and survived. The
    /// macro mirrors each field into telemetry under the matching
    /// `platform.*` counter: every event goes through `bump`, which moves
    /// both at once.
    pub struct PlatformStats {
        /// Epochs observed.
        epochs => "platform.epochs",
        /// Individual `Fs::write` calls issued (including retries).
        writes => "platform.writes",
        /// Retry attempts taken after a failed write-verify.
        write_retries => "platform.write_retries",
        /// `Fs::write` calls that returned an error.
        write_errors => "platform.write_errors",
        /// Actuation targets verified only after at least one retry.
        reconciled => "platform.reconciled",
        /// Actuation targets still unverified after the retry budget.
        divergences => "platform.divergences",
        /// cpufreq writes the governor clamped (accepted and reported).
        clamps => "platform.clamps",
        /// Counter reads whose sequence stamp failed to advance.
        stale_counters => "platform.stale_counters",
        /// Counter reads with unparsable or non-finite content.
        garbage_counters => "platform.garbage_counters",
        /// Counter reads that failed at the filesystem.
        missing_counters => "platform.missing_counters",
        /// Energy readings that were unreadable or ran backwards.
        power_glitches => "platform.power_glitches",
        /// Epochs whose report carried degraded telemetry health.
        degraded_epochs => "platform.degraded_epochs",
    }
}

/// The last accepted latency observables for one service, reserved when
/// a counter read goes stale.
#[derive(Debug, Clone, Copy, Default)]
struct LatencyObs {
    offered_rps: f64,
    load_fraction: f64,
    p99_ms: f64,
    mean_ms: f64,
    completed: usize,
    dropped: u64,
    queue_len: usize,
}

enum WriteOutcome {
    Verified,
    Diverged,
}

enum ReadOutcome {
    Fresh(u64, Vec<f64>),
    Stale,
    Garbage,
    Missing,
}

/// The [`Platform`] over real (or faked) Linux control files.
///
/// # Examples
///
/// Driving the backend against a [`crate::FakeFs`] world:
///
/// ```
/// use twig_platform::{FakeFs, LinuxConfig, LinuxLayout, Platform, SimWorld};
/// use twig_sim::catalog;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut world = SimWorld::new(vec![catalog::masstree()], 42)?;
/// let mut platform = world.platform()?;
/// let all = twig_sim::Assignment::first_n(platform.cores(), platform.dvfs().max());
/// platform.actuate(&[all])?;
/// world.tick()?;
/// let report = platform.observe_epoch()?;
/// assert!(report.services[0].p99_ms.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LinuxPlatform<F: Fs> {
    fs: F,
    config: LinuxConfig,
    telemetry: Telemetry,
    stats: PlatformStats,
    time_s: u64,
    energy_j: f64,
    last_energy_uj: Option<u64>,
    last_power_w: f64,
    applied: Vec<AppliedAssignment>,
    core_freq: Vec<Frequency>,
    prev_cores: Vec<BTreeSet<CoreId>>,
    pmc_seq: Vec<u64>,
    lat_seq: Vec<u64>,
    prev_pmcs: Vec<PmcSample>,
    prev_lat: Vec<LatencyObs>,
    diverged_this_epoch: bool,
    actuated: bool,
}

impl<F: Fs> LinuxPlatform<F> {
    /// Builds the backend over a filesystem handle. Reads the energy
    /// counter once to baseline power accounting (a missing counter is
    /// tolerated and baselined at the first successful read).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::Config`] for an invalid configuration.
    pub fn new(config: LinuxConfig, fs: F) -> Result<Self, PlatformError> {
        config.validate()?;
        let n = config.specs.len();
        let last_energy_uj = fs
            .read(&config.layout.energy_file)
            .ok()
            .and_then(|t| t.trim().parse().ok());
        Ok(LinuxPlatform {
            applied: vec![AppliedAssignment::verbatim(Vec::new(), config.dvfs.min()); n],
            core_freq: vec![config.dvfs.min(); config.cores],
            prev_cores: vec![BTreeSet::new(); n],
            pmc_seq: vec![0; n],
            lat_seq: vec![0; n],
            prev_pmcs: vec![PmcSample::default(); n],
            prev_lat: vec![LatencyObs::default(); n],
            fs,
            config,
            telemetry: Telemetry::disabled(),
            stats: PlatformStats::default(),
            time_s: 0,
            energy_j: 0.0,
            last_energy_uj,
            last_power_w: 0.0,
            diverged_this_epoch: false,
            actuated: false,
        })
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &PlatformStats {
        &self.stats
    }

    /// The configuration.
    pub fn config(&self) -> &LinuxConfig {
        &self.config
    }

    /// The filesystem handle (tests inspect the fake tree through it).
    pub fn fs(&self) -> &F {
        &self.fs
    }

    /// One rung-by-rung climb of the ladder for an exact-match file.
    fn write_verified(&mut self, path: &str, want: &str) -> WriteOutcome {
        for attempt in 0..=RETRY_BUDGET.max_retries {
            if attempt > 0 {
                self.stats.bump(&self.telemetry, |s| &mut s.write_retries);
            }
            self.stats.bump(&self.telemetry, |s| &mut s.writes);
            if self.fs.write(path, want).is_err() {
                self.stats.bump(&self.telemetry, |s| &mut s.write_errors);
                continue;
            }
            if matches!(self.fs.read(path), Ok(got) if got.trim() == want) {
                if attempt > 0 {
                    self.stats.bump(&self.telemetry, |s| &mut s.reconciled);
                }
                return WriteOutcome::Verified;
            }
        }
        WriteOutcome::Diverged
    }

    /// The ladder for one core's cpufreq setpoint. Returns the applied
    /// frequency, or `None` on divergence (last known setting stands).
    fn write_freq(&mut self, core: usize, want: Frequency) -> Option<Frequency> {
        let path = self.config.layout.freq_path(core);
        let want_khz = (u64::from(want.mhz()) * 1000).to_string();
        for attempt in 0..=RETRY_BUDGET.max_retries {
            if attempt > 0 {
                self.stats.bump(&self.telemetry, |s| &mut s.write_retries);
            }
            self.stats.bump(&self.telemetry, |s| &mut s.writes);
            if self.fs.write(&path, &want_khz).is_err() {
                self.stats.bump(&self.telemetry, |s| &mut s.write_errors);
                continue;
            }
            let Ok(got) = self.fs.read(&path) else {
                continue;
            };
            let got = got.trim();
            if got == want_khz {
                if attempt > 0 {
                    self.stats.bump(&self.telemetry, |s| &mut s.reconciled);
                }
                return Some(want);
            }
            if let Ok(khz) = got.parse::<u64>() {
                if khz * 1000 < u64::from(want.mhz()) * 1_000_000 {
                    // The governor clamped the setpoint: a policy
                    // decision, accepted and reported rather than fought.
                    self.stats.bump(&self.telemetry, |s| &mut s.clamps);
                    let mhz = u32::try_from(khz / 1000).unwrap_or(u32::MAX);
                    return Some(self.config.dvfs.floor(Frequency::from_mhz(mhz)));
                }
            }
            // Garbage or above-request read-back: keep climbing.
        }
        None
    }

    fn diverge(&mut self) {
        self.stats.bump(&self.telemetry, |s| &mut s.divergences);
        self.diverged_this_epoch = true;
    }

    /// Reads a `seq v0 v1 ...` stamped counter file.
    fn read_stamped(&self, path: &str, want: usize, last_seq: u64) -> ReadOutcome {
        let text = match self.fs.read(path) {
            Ok(text) => text,
            Err(_) => return ReadOutcome::Missing,
        };
        let mut tokens = text.split_whitespace();
        let Some(Ok(seq)) = tokens.next().map(str::parse::<u64>) else {
            return ReadOutcome::Garbage;
        };
        let values: Option<Vec<f64>> = tokens
            .map(|t| t.parse::<f64>().ok().filter(|v| v.is_finite()))
            .collect();
        match values {
            Some(values) if values.len() == want => {
                if seq > last_seq {
                    ReadOutcome::Fresh(seq, values)
                } else {
                    ReadOutcome::Stale
                }
            }
            _ => ReadOutcome::Garbage,
        }
    }

    fn actuate_impl(&mut self, assignments: &[Assignment]) -> Result<(), PlatformError> {
        let n = self.config.specs.len();
        if assignments.len() != n {
            return Err(PlatformError::Protocol {
                detail: format!("{} assignments for {n} services", assignments.len()),
            });
        }
        for a in assignments {
            if self.config.dvfs.index_of(a.freq).is_err() {
                return Err(PlatformError::Config {
                    detail: format!("requested frequency {} MHz is off the ladder", a.freq.mhz()),
                });
            }
            if let Some(c) = a.cores.iter().find(|c| c.index() >= self.config.cores) {
                return Err(PlatformError::Config {
                    detail: format!("core {} out of range", c.index()),
                });
            }
        }
        self.diverged_this_epoch = false;

        // Phase 1: per-service cpusets, write-verify-retried.
        let mut applied_cores: Vec<Vec<CoreId>> = Vec::with_capacity(n);
        let mut rejected = vec![false; n];
        for (i, a) in assignments.iter().enumerate() {
            let desired: Vec<CoreId> = a
                .cores
                .iter()
                .copied()
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            if desired.is_empty() {
                // Nothing to actuate: an empty cpuset would evict the
                // cgroup, so the file is left alone.
                applied_cores.push(Vec::new());
                continue;
            }
            let path = self.config.layout.cpuset_path(&self.config.specs[i].name);
            let want = cpulist::emit(&desired);
            match self.write_verified(&path, &want) {
                WriteOutcome::Verified => applied_cores.push(desired),
                WriteOutcome::Diverged => {
                    self.diverge();
                    rejected[i] = true;
                    // The OS's read-back is the applied truth when it
                    // parses; otherwise the last known state stands.
                    let fallback = self.applied[i].cores.clone();
                    let cores = self
                        .fs
                        .read(&path)
                        .ok()
                        .and_then(|text| cpulist::parse(&text).ok())
                        .filter(|cs| cs.iter().all(|c| c.index() < self.config.cores))
                        .unwrap_or(fallback);
                    applied_cores.push(cores);
                }
            }
        }

        // Phase 2: per-core DVFS, max-arbitrated across the services
        // that landed on the core (cpufreq is per-core, requests are
        // per-service).
        let mut target: Vec<Option<Frequency>> = vec![None; self.config.cores];
        for (i, a) in assignments.iter().enumerate() {
            for c in &applied_cores[i] {
                let t = target[c.index()].get_or_insert(a.freq);
                if a.freq > *t {
                    *t = a.freq;
                }
            }
        }
        for (core, slot) in target.iter().enumerate() {
            let Some(want) = *slot else { continue };
            match self.write_freq(core, want) {
                Some(applied) => self.core_freq[core] = applied,
                None => self.diverge(), // last known setting stands
            }
        }

        // The per-service applied record: the slowest of the service's
        // cores bounds its effective frequency.
        let new_applied: Vec<AppliedAssignment> = assignments
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let cores = applied_cores[i].clone();
                let slowest = cores
                    .iter()
                    .map(|c| self.core_freq[c.index()])
                    .min()
                    .unwrap_or(a.freq);
                let freq = slowest.min(a.freq);
                AppliedAssignment {
                    freq,
                    clamped: freq < a.freq,
                    rejected: rejected[i],
                    cores_lost_offline: 0,
                    cores,
                }
            })
            .collect();
        self.applied = new_applied;
        self.actuated = true;
        Ok(())
    }

    fn observe_impl(&mut self) -> Result<EpochReport, PlatformError> {
        if !self.actuated {
            return Err(PlatformError::Protocol {
                detail: "observe_epoch without a prior actuate".to_string(),
            });
        }
        self.actuated = false;
        let n = self.config.specs.len();
        let mut health = TelemetryHealth::clean(n);

        // Counter files: a fresh sequence stamp advances the cache; any
        // other outcome serves the previous sample and flags the service.
        for i in 0..n {
            let name = self.config.specs[i].name.clone();
            let outcome = self.read_stamped(
                &self.config.layout.pmc_path(&name),
                NUM_COUNTERS,
                self.pmc_seq[i],
            );
            match outcome {
                ReadOutcome::Fresh(seq, values) => {
                    self.pmc_seq[i] = seq;
                    let mut sample = [0.0; NUM_COUNTERS];
                    sample.copy_from_slice(&values);
                    self.prev_pmcs[i] = PmcSample::from_array(sample);
                }
                ReadOutcome::Stale => {
                    self.stats.bump(&self.telemetry, |s| &mut s.stale_counters);
                    health.pmc_faults[i] = Some(PmcFaultKind::Stale);
                }
                ReadOutcome::Garbage => {
                    self.stats
                        .bump(&self.telemetry, |s| &mut s.garbage_counters);
                    health.pmc_faults[i] = Some(PmcFaultKind::Stale);
                }
                ReadOutcome::Missing => {
                    self.stats
                        .bump(&self.telemetry, |s| &mut s.missing_counters);
                    health.pmc_faults[i] = Some(PmcFaultKind::Stale);
                }
            }
            let outcome =
                self.read_stamped(&self.config.layout.latency_path(&name), 7, self.lat_seq[i]);
            match outcome {
                ReadOutcome::Fresh(seq, v) => {
                    self.lat_seq[i] = seq;
                    self.prev_lat[i] = LatencyObs {
                        offered_rps: v[0],
                        load_fraction: v[1],
                        p99_ms: v[2],
                        mean_ms: v[3],
                        completed: v[4].max(0.0) as usize,
                        dropped: v[5].max(0.0) as u64,
                        queue_len: v[6].max(0.0) as usize,
                    };
                }
                ReadOutcome::Stale => {
                    self.stats.bump(&self.telemetry, |s| &mut s.stale_counters);
                    health.pmc_faults[i] = Some(PmcFaultKind::Stale);
                }
                ReadOutcome::Garbage => {
                    self.stats
                        .bump(&self.telemetry, |s| &mut s.garbage_counters);
                    health.pmc_faults[i] = Some(PmcFaultKind::Stale);
                }
                ReadOutcome::Missing => {
                    self.stats
                        .bump(&self.telemetry, |s| &mut s.missing_counters);
                    health.pmc_faults[i] = Some(PmcFaultKind::Stale);
                }
            }
        }

        // Energy: cumulative microjoules; one epoch is one second, so
        // power is just the delta. Backwards or unreadable counters keep
        // the last power reading and flag the glitch.
        match self
            .fs
            .read(&self.config.layout.energy_file)
            .ok()
            .and_then(|t| t.trim().parse::<u64>().ok())
        {
            Some(uj) => match self.last_energy_uj {
                Some(prev) if uj >= prev => {
                    self.last_power_w = (uj - prev) as f64 / 1e6;
                    self.last_energy_uj = Some(uj);
                }
                Some(_) => {
                    self.stats.bump(&self.telemetry, |s| &mut s.power_glitches);
                    health.power_glitched = true;
                    self.last_energy_uj = Some(uj); // resync after the wrap
                }
                None => self.last_energy_uj = Some(uj),
            },
            None => {
                self.stats.bump(&self.telemetry, |s| &mut s.power_glitches);
                health.power_glitched = true;
            }
        }
        self.energy_j += self.last_power_w;

        // Unreconciled actuations route the epoch to the governor's
        // degraded path.
        if self.diverged_this_epoch {
            health.delayed_epochs = 1;
        }
        if health.degraded() {
            self.stats.bump(&self.telemetry, |s| &mut s.degraded_epochs);
        }

        let mut services = Vec::with_capacity(n);
        let mut migrations = 0;
        for i in 0..n {
            let cores: BTreeSet<CoreId> = self.applied[i].cores.iter().copied().collect();
            let migrated = cores.symmetric_difference(&self.prev_cores[i]).count();
            migrations += migrated;
            self.prev_cores[i] = cores;
            let lat = self.prev_lat[i];
            services.push(ServiceEpoch {
                name: self.config.specs[i].name.clone(),
                offered_rps: lat.offered_rps,
                load_fraction: lat.load_fraction,
                p99_ms: lat.p99_ms,
                mean_ms: lat.mean_ms,
                completed: lat.completed,
                dropped: lat.dropped,
                queue_len: lat.queue_len,
                pmcs: self.prev_pmcs[i],
                core_count: self.applied[i].cores.len(),
                freq: self.applied[i].freq,
                migrated_cores: migrated,
            });
        }

        self.stats.bump(&self.telemetry, |s| &mut s.epochs);
        let report = EpochReport {
            time_s: self.time_s,
            services,
            power_w: self.last_power_w,
            true_power_w: self.last_power_w,
            energy_j: self.energy_j,
            migrations,
            actuation: self.applied.clone(),
            telemetry: health,
        };
        self.time_s += 1;
        Ok(report)
    }
}

impl<F: Fs> Platform for LinuxPlatform<F> {
    fn cores(&self) -> usize {
        self.config.cores
    }

    fn dvfs(&self) -> &DvfsLadder {
        &self.config.dvfs
    }

    fn specs(&self) -> &[ServiceSpec] {
        &self.config.specs
    }

    fn actuate(&mut self, assignments: &[Assignment]) -> Result<(), PlatformError> {
        self.actuate_impl(assignments)
    }

    fn observe_epoch(&mut self) -> Result<EpochReport, PlatformError> {
        self.observe_impl()
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fake::FakeFs;
    use crate::fault::{OsFaultConfig, OsFaultPlan};
    use twig_sim::catalog;

    fn config(fs: &FakeFs) -> LinuxConfig {
        let mut config = LinuxConfig::new(
            8,
            DvfsLadder::default(),
            vec![catalog::masstree(), catalog::moses()],
        );
        config.layout = LinuxLayout::under("/fake");
        // Seed the world the exporters would maintain.
        for (i, spec) in config.specs.iter().enumerate() {
            fs.seed_file(
                &config.layout.pmc_path(&spec.name),
                &format!("1 {}", ["0.5"; NUM_COUNTERS].join(" ")),
            );
            fs.seed_file(
                &config.layout.latency_path(&spec.name),
                &format!("1 1000 0.25 {}.5 1.0 900 0 3", i + 2),
            );
        }
        fs.seed_file(&config.layout.energy_file, "0");
        config
    }

    fn all_cores(platform: &LinuxPlatform<FakeFs>) -> Assignment {
        Assignment::first_n(4, platform.config().dvfs.max())
    }

    fn advance_world(fs: &FakeFs, config: &LinuxConfig, seq: u64, energy_uj: u64) {
        for spec in &config.specs {
            fs.seed_file(
                &config.layout.pmc_path(&spec.name),
                &format!("{seq} {}", ["0.7"; NUM_COUNTERS].join(" ")),
            );
            fs.seed_file(
                &config.layout.latency_path(&spec.name),
                &format!("{seq} 1200 0.3 4.5 1.2 1100 2 5"),
            );
        }
        fs.seed_file(&config.layout.energy_file, &energy_uj.to_string());
    }

    #[test]
    fn calm_epoch_applies_verbatim_and_reads_fresh_counters() {
        let fs = FakeFs::new();
        let config = config(&fs);
        let mut platform = LinuxPlatform::new(config.clone(), fs.clone()).unwrap();
        let a = all_cores(&platform);
        let b = Assignment::new(vec![CoreId(4), CoreId(5)], platform.config().dvfs.min());
        platform.actuate_impl(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(
            fs.read_raw(&config.layout.cpuset_path("masstree")).unwrap(),
            "0-3"
        );
        assert_eq!(
            fs.read_raw(&config.layout.cpuset_path("moses")).unwrap(),
            "4-5"
        );
        advance_world(&fs, &config, 2, 95_000_000);
        let report = platform.observe_impl().unwrap();
        assert!(report.actuation.iter().all(|ap| !ap.diverged()));
        assert!(!report.telemetry.degraded());
        assert_eq!(report.services[0].completed, 1100);
        assert!((report.power_w - 95.0).abs() < 1e-9);
        assert_eq!(report.migrations, 6);
        assert_eq!(platform.stats().divergences, 0);
    }

    #[test]
    fn shared_core_takes_the_faster_request() {
        let fs = FakeFs::new();
        let config = config(&fs);
        let mut platform = LinuxPlatform::new(config.clone(), fs.clone()).unwrap();
        let fast = Assignment::new(vec![CoreId(0)], platform.config().dvfs.max());
        let slow = Assignment::new(vec![CoreId(0)], platform.config().dvfs.min());
        platform.actuate_impl(&[fast, slow]).unwrap();
        let max_khz = u64::from(config.dvfs.max().mhz()) * 1000;
        assert_eq!(
            fs.read_raw(&config.layout.freq_path(0)).unwrap(),
            max_khz.to_string()
        );
        // The slow service is reported at its own request, not the
        // core's faster arbitration result.
        assert_eq!(platform.applied[1].freq, config.dvfs.min());
        assert!(!platform.applied[1].clamped);
    }

    #[test]
    fn eperm_storm_exhausts_the_budget_and_routes_to_the_governor() {
        let fs = FakeFs::new();
        let config = config(&fs);
        fs.set_fault_plan(
            OsFaultPlan::new(
                OsFaultConfig {
                    cpuset_eperm_rate: 1.0,
                    cpufreq_eperm_rate: 1.0,
                    ..OsFaultConfig::default()
                },
                9,
            )
            .unwrap(),
        );
        let mut platform = LinuxPlatform::new(config.clone(), fs.clone()).unwrap();
        let a = all_cores(&platform);
        platform.actuate_impl(&[a.clone(), a.clone()]).unwrap();
        // Both cpusets rejected; the four contested cores diverge too.
        assert!(platform.applied.iter().all(|ap| ap.rejected));
        assert!(platform.applied.iter().all(|ap| ap.cores.is_empty()));
        advance_world(&fs, &config, 2, 1_000_000);
        let report = platform.observe_impl().unwrap();
        assert_eq!(report.telemetry.delayed_epochs, 1);
        assert!(report.telemetry.degraded());
        let stats = platform.stats();
        assert_eq!(stats.divergences, 2, "one per unverified cpuset");
        assert_eq!(stats.write_errors, stats.writes);
        assert_eq!(stats.degraded_epochs, 1);
    }

    #[test]
    fn governor_clamp_is_accepted_and_reported() {
        let fs = FakeFs::new();
        let config = config(&fs);
        fs.set_fault_plan(
            OsFaultPlan::new(
                OsFaultConfig {
                    cpufreq_clamp_rate: 1.0,
                    cpufreq_floor_khz: 1_200_000,
                    ..OsFaultConfig::default()
                },
                9,
            )
            .unwrap(),
        );
        let mut platform = LinuxPlatform::new(config.clone(), fs.clone()).unwrap();
        let a = all_cores(&platform);
        let floor = config.dvfs.min();
        platform.actuate_impl(&[a.clone(), a.clone()]).unwrap();
        assert!(platform.applied.iter().all(|ap| ap.clamped));
        assert_eq!(platform.applied[0].freq, floor);
        assert_eq!(platform.stats().clamps as usize, 4, "one per core");
        assert_eq!(
            platform.stats().divergences,
            0,
            "clamps are not divergences"
        );
    }

    #[test]
    fn stale_counters_serve_the_previous_sample() {
        let fs = FakeFs::new();
        let config = config(&fs);
        let mut platform = LinuxPlatform::new(config.clone(), fs.clone()).unwrap();
        let a = all_cores(&platform);
        platform.actuate_impl(&[a.clone(), a.clone()]).unwrap();
        advance_world(&fs, &config, 2, 1_000_000);
        let first = platform.observe_impl().unwrap();
        assert!(!first.telemetry.degraded());
        // The exporter hangs: stamps stop advancing.
        platform.actuate_impl(&[a.clone(), a.clone()]).unwrap();
        let second = platform.observe_impl().unwrap();
        assert!(second.telemetry.pmc_faults.iter().all(Option::is_some));
        assert_eq!(second.services[0].pmcs, first.services[0].pmcs);
        assert_eq!(second.services[0].completed, first.services[0].completed);
        assert_eq!(
            platform.stats().stale_counters,
            4,
            "pmc + latency per service"
        );
        assert_eq!(platform.stats().degraded_epochs, 1);
    }

    #[test]
    fn backwards_energy_is_a_power_glitch() {
        let fs = FakeFs::new();
        let config = config(&fs);
        let mut platform = LinuxPlatform::new(config.clone(), fs.clone()).unwrap();
        let a = all_cores(&platform);
        platform.actuate_impl(&[a.clone(), a.clone()]).unwrap();
        advance_world(&fs, &config, 2, 50_000_000);
        let first = platform.observe_impl().unwrap();
        assert!((first.power_w - 50.0).abs() < 1e-9);
        platform.actuate_impl(&[a.clone(), a.clone()]).unwrap();
        advance_world(&fs, &config, 3, 10); // RAPL wrapped
        let second = platform.observe_impl().unwrap();
        assert!(second.telemetry.power_glitched);
        assert!(
            (second.power_w - 50.0).abs() < 1e-9,
            "keeps the last reading"
        );
        assert_eq!(platform.stats().power_glitches, 1);
    }

    #[test]
    fn config_validation_rejects_bad_shapes() {
        let fs = FakeFs::new();
        let mut bad = LinuxConfig::new(0, DvfsLadder::default(), vec![catalog::masstree()]);
        assert!(LinuxPlatform::new(bad.clone(), fs.clone()).is_err());
        bad.cores = 8;
        bad.specs[0].name = "a/b".to_string();
        assert!(LinuxPlatform::new(bad, fs.clone()).is_err());
        let config = config(&fs);
        let mut platform = LinuxPlatform::new(config, fs).unwrap();
        let off_ladder = Assignment::new(vec![CoreId(0)], Frequency::from_mhz(1234));
        assert!(platform
            .actuate_impl(&[off_ladder.clone(), off_ladder])
            .is_err());
    }
}
