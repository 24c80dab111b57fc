use crate::fleet::{run_fleet, FleetStats, Unit};
use crate::Options;
use twig_cluster::{AgentTuning, ClusterConfig, CoordinatorConfig, NodePlatform};
use twig_core::{RewardConfig, TaskManager, Twig, TwigBuilder};
use twig_rl::{EpsilonSchedule, MaBdqConfig};
use twig_sim::{catalog, DvfsLadder, EpochReport, Server, ServiceSpec};

/// Boxed error used throughout the harness.
pub type ExpError = Box<dyn std::error::Error + Send + Sync>;

/// Drives `manager` against `server` for `epochs` decision epochs,
/// returning every epoch's report.
///
/// # Errors
///
/// Propagates manager and simulator errors.
pub fn drive(
    server: &mut Server,
    manager: &mut dyn TaskManager,
    epochs: u64,
) -> Result<Vec<EpochReport>, ExpError> {
    let mut reports = Vec::with_capacity(epochs as usize);
    for _ in 0..epochs {
        let assignments = manager.decide()?;
        let report = server.step(&assignments)?;
        manager.observe(&report)?;
        reports.push(report);
    }
    Ok(reports)
}

/// The last `n` epochs of a trace (the paper's measurement windows).
/// `n == 0` yields an empty window; `n` larger than the trace clamps to
/// the whole trace.
pub fn window(reports: &[EpochReport], n: u64) -> &[EpochReport] {
    let n = (n as usize).min(reports.len());
    &reports[reports.len() - n..]
}

/// Runs text-producing fleet units with `opts.jobs` workers and appends
/// their outputs to `out` in submission order. This is the one entry point
/// experiment modules use to parallelize, so every table stays
/// bit-identical between `--jobs 1` and `--jobs N`.
///
/// # Errors
///
/// Returns a combined error naming every failed unit.
pub fn run_sections(
    out: &mut String,
    units: Vec<Unit<'_, String>>,
    opts: &Options,
) -> Result<FleetStats, ExpError> {
    let run = run_fleet(units, opts.jobs, opts.seed);
    let stats = run.stats.clone();
    for section in run.into_outputs()? {
        out.push_str(&section);
    }
    Ok(stats)
}

/// Builds a Twig manager scaled to the experiment: the ε schedule is
/// compressed to `learn_epochs` (use the paper's 10 000 for `--full`), and
/// the network uses the fast default architecture (see
/// [`MaBdqConfig::default`] vs [`MaBdqConfig::paper`]).
///
/// # Errors
///
/// Propagates Twig construction errors.
pub fn make_twig(
    services: Vec<ServiceSpec>,
    learn_epochs: u64,
    seed: u64,
) -> Result<Twig, ExpError> {
    // The schedule reaches its 0.01 floor *by the end* of the learning
    // phase, so measurement windows see an (almost) pure exploitation
    // policy — the paper measures "after the first 10 000 s, allowing Twig
    // ... to gain sufficient experiences".
    // Keep the paper's total gradient-step budget (~10 000) even when the
    // learning phase is compressed, by replaying the buffer more per epoch.
    let replay_ratio = (10_000 / learn_epochs.max(1)).clamp(1, 3) as u32;
    // θ is tuned empirically per platform, exactly as Section IV tunes the
    // reward parameters ("determined empirically … yielded the best energy
    // efficiency while improving the QoS guarantee"); 1.0 is this
    // platform's best point (the paper's testbed used 0.5).
    Ok(TwigBuilder::new()
        .services(services)
        .epsilon(EpsilonSchedule::new(
            0.1,
            0.005,
            learn_epochs * 3 / 5,
            learn_epochs,
        ))
        .agent(MaBdqConfig::default())
        .reward(RewardConfig {
            theta: 1.0,
            ..RewardConfig::default()
        })
        .train_steps_per_epoch(replay_ratio)
        .action_stickiness(0.02)
        .seed(seed)
        .build()?)
}

/// Epochs per schedule (or per crash segment) of a chaos suite: `smoke`
/// under `--smoke`, 120 under `--full`, `fast` otherwise.
pub(crate) fn suite_epochs(opts: &Options, smoke: u64, fast: u64) -> u64 {
    if opts.smoke {
        smoke
    } else if opts.full {
        120
    } else {
        fast
    }
}

/// The lockstep skeleton of a twin-manager proof. Each of `epochs` times,
/// `epoch` runs one epoch on both sides and returns their reports; the
/// twins then observe their own report. The run stays identical while
/// every pair of reports and every pair of `state` serializations match.
pub(crate) fn twin_lockstep<M: TaskManager>(
    epochs: u64,
    twins: &mut [M; 2],
    state: fn(&M) -> Vec<u8>,
    mut epoch: impl FnMut(&mut [M; 2]) -> Result<[EpochReport; 2], ExpError>,
) -> Result<bool, ExpError> {
    let mut identical = true;
    for _ in 0..epochs {
        let [ra, rb] = epoch(twins)?;
        identical &= ra == rb;
        twins[0].observe(&ra)?;
        twins[1].observe(&rb)?;
        identical &= state(&twins[0]) == state(&twins[1]);
    }
    Ok(identical)
}

/// Missed heartbeats before the balancer (and coordinator) suspect a node
/// in the cluster and federation suites.
pub(crate) const SUSPECT_AFTER: u32 = 2;
/// Replicas per service in the cluster and federation suites.
pub(crate) const REPLICATION: usize = 2;

/// The fleet the cluster and federation suites run: three services on
/// four heterogeneous nodes, so state transfer exercises both the restore
/// path (same shape) and the cold-fallback path (18-core policy offered to
/// a 12-core socket), and the 12-core socket's federation payloads hit the
/// shape rung and the incompatible-recipient path on every round.
pub(crate) fn suite_cluster_config(epochs: u64, seed: u64) -> ClusterConfig {
    let big = NodePlatform {
        cores: 18,
        dvfs: DvfsLadder::default(),
    };
    let small = NodePlatform {
        cores: 12,
        dvfs: DvfsLadder::new(1200, 100, 7).expect("valid ladder"),
    };
    let services = vec![catalog::masstree(), catalog::xapian(), catalog::img_dnn()];
    // ~0.9x of one replica's reference capacity per service: a replica
    // pair splits it comfortably and a lone survivor can still absorb it
    // during failover windows.
    let demand_rps = services
        .iter()
        .map(|s| (s.max_load_rps * 0.9) as u64)
        .collect();
    ClusterConfig {
        nodes: vec![big.clone(), big.clone(), big, small],
        services,
        demand_rps,
        replication: REPLICATION,
        suspect_after_misses: SUSPECT_AFTER,
        coordinator: CoordinatorConfig {
            suspect_after_misses: SUSPECT_AFTER,
            spinup_epochs: 2,
            transfer_bytes_per_epoch: 64 * 1024,
            stall_timeout_epochs: 3,
            max_transfer_attempts: 3,
            initial_backoff_epochs: 2,
            max_backoff_epochs: 8,
        },
        tuning: AgentTuning {
            learn_epochs: epochs,
            ..AgentTuning::default()
        },
        seed,
    }
}

/// Per-service evaluation metrics over a measurement window (Section V):
/// *QoS guarantee* is the percentage of epoch p99 samples meeting the
/// target; *QoS tardiness* is measured p99 over target.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSummary {
    /// Service name.
    pub name: String,
    /// Percentage of epochs whose p99 met the QoS target.
    pub qos_guarantee_pct: f64,
    /// Mean tardiness (measured p99 / target).
    pub mean_tardiness: f64,
    /// Worst tardiness in the window.
    pub max_tardiness: f64,
    /// Mean p99 in milliseconds.
    pub mean_p99_ms: f64,
    /// Mean cores allocated.
    pub mean_cores: f64,
    /// Mean DVFS frequency in MHz.
    pub mean_freq_mhz: f64,
}

/// Summarises a window of reports per service (targets from `specs`).
///
/// # Panics
///
/// Panics if `reports` is empty or shapes disagree with `specs`.
pub fn summarize(reports: &[EpochReport], specs: &[ServiceSpec]) -> Vec<ServiceSummary> {
    assert!(!reports.is_empty(), "empty measurement window");
    let k = specs.len();
    (0..k)
        .map(|i| {
            let qos = specs[i].qos_ms;
            let mut met = 0usize;
            let mut tard_sum = 0.0;
            let mut tard_max: f64 = 0.0;
            let mut p99_sum = 0.0;
            let mut cores_sum = 0.0;
            let mut freq_sum = 0.0;
            let mut counted = 0usize;
            for r in reports {
                let svc = &r.services[i];
                cores_sum += svc.core_count as f64;
                freq_sum += svc.freq.mhz() as f64;
                // Idle epochs (no offered traffic) don't count toward QoS.
                if svc.offered_rps <= 0.0 && svc.completed == 0 {
                    continue;
                }
                counted += 1;
                let tardiness = svc.p99_ms / qos;
                if tardiness <= 1.0 {
                    met += 1;
                }
                tard_sum += tardiness;
                tard_max = tard_max.max(tardiness);
                p99_sum += svc.p99_ms;
            }
            let denom = counted.max(1) as f64;
            ServiceSummary {
                name: specs[i].name.clone(),
                qos_guarantee_pct: 100.0 * met as f64 / denom,
                mean_tardiness: tard_sum / denom,
                max_tardiness: tard_max,
                mean_p99_ms: p99_sum / denom,
                mean_cores: cores_sum / reports.len() as f64,
                mean_freq_mhz: freq_sum / reports.len() as f64,
            }
        })
        .collect()
}

/// A suite's acceptance: every failure class it exists for fired somewhere,
/// rather than being survived in the abstract.
///
/// # Panics
///
/// Naming the first class whose count is zero.
pub(crate) fn assert_exercised(classes: &[(u64, &str)]) {
    for &(count, class) in classes {
        assert!(count > 0, "no {class} was ever exercised");
    }
}

/// The QoS columns of a suite row: every service-epoch's p99 against its
/// target, counted toward the Section V QoS guarantee and the mean p99.
#[derive(Debug, Default)]
pub(crate) struct QosTally {
    met: u64,
    total: u64,
    p99_sum: f64,
}

impl QosTally {
    /// Counts every service of `report` against its target in `qos_ms`.
    ///
    /// # Panics
    ///
    /// When a p99 is negative or not finite: no suite may let one reach the
    /// manager.
    pub(crate) fn absorb(&mut self, report: &EpochReport, qos_ms: &[f64]) {
        for (svc, &qos) in report.services.iter().zip(qos_ms) {
            assert!(
                svc.p99_ms.is_finite() && svc.p99_ms >= 0.0,
                "non-finite p99 reached the manager"
            );
            self.total += 1;
            self.met += u64::from(svc.p99_ms <= qos);
            self.p99_sum += svc.p99_ms;
        }
    }

    /// Percentage of service-epochs that met their target (0 if none).
    pub(crate) fn pct(&self) -> f64 {
        self.mean(100.0 * self.met as f64)
    }

    /// Mean p99 in milliseconds (0 if no service-epoch was counted).
    pub(crate) fn mean_p99(&self) -> f64 {
        self.mean(self.p99_sum)
    }

    fn mean(&self, sum: f64) -> f64 {
        if self.total > 0 {
            sum / self.total as f64
        } else {
            0.0
        }
    }
}

/// Total ground-truth energy over a window, in joules (epochs are one
/// simulated second).
pub fn total_energy(reports: &[EpochReport]) -> f64 {
    reports.iter().map(|r| r.true_power_w).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_baselines::StaticMapping;
    use twig_sim::{catalog, DvfsLadder, ServerConfig};

    #[test]
    fn drive_and_summarize_roundtrip() {
        let specs = vec![catalog::masstree()];
        let mut server = Server::new(ServerConfig::default(), specs.clone(), 1).unwrap();
        server.set_load_fraction(0, 0.5).unwrap();
        let mut manager = StaticMapping::new(specs.clone(), 18, DvfsLadder::default()).unwrap();
        let reports = drive(&mut server, &mut manager, 20).unwrap();
        assert_eq!(reports.len(), 20);
        let tail = window(&reports, 10);
        assert_eq!(tail.len(), 10);
        let summary = summarize(tail, &specs);
        assert_eq!(summary.len(), 1);
        assert!(summary[0].qos_guarantee_pct > 50.0);
        assert_eq!(summary[0].mean_cores, 18.0);
        assert!(total_energy(tail) > 0.0);
    }

    #[test]
    fn window_clamps_to_len() {
        let specs = vec![catalog::moses()];
        let mut server = Server::new(ServerConfig::default(), specs.clone(), 2).unwrap();
        let mut manager = StaticMapping::new(specs, 18, DvfsLadder::default()).unwrap();
        let reports = drive(&mut server, &mut manager, 5).unwrap();
        assert_eq!(window(&reports, 100).len(), 5);
    }

    #[test]
    fn window_edge_cases() {
        // n == 0 is an empty window, not a panic.
        assert!(window(&[], 0).is_empty());
        // n > len on an empty trace clamps to empty.
        assert!(window(&[], 7).is_empty());
        let specs = vec![catalog::moses()];
        let mut server = Server::new(ServerConfig::default(), specs.clone(), 2).unwrap();
        let mut manager = StaticMapping::new(specs, 18, DvfsLadder::default()).unwrap();
        let reports = drive(&mut server, &mut manager, 3).unwrap();
        assert!(window(&reports, 0).is_empty());
        // The clamped oversized window is the whole trace, in order.
        let whole = window(&reports, u64::MAX);
        assert_eq!(whole.len(), 3);
        assert_eq!(whole[0].time_s, reports[0].time_s);
        // An in-range window is the tail.
        let tail = window(&reports, 2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].time_s, reports[1].time_s);
    }

    #[test]
    fn run_sections_appends_in_order() {
        let opts = Options {
            jobs: 3,
            ..Options::default()
        };
        let units = (0..5)
            .map(|i| Unit::new(format!("s{i}"), move |_| Ok(format!("line {i}\n"))))
            .collect();
        let mut out = String::new();
        let stats = run_sections(&mut out, units, &opts).unwrap();
        assert_eq!(out, "line 0\nline 1\nline 2\nline 3\nline 4\n");
        assert_eq!(stats.units_ok, 5);
    }

    #[test]
    fn make_twig_runs() {
        let specs = vec![catalog::xapian()];
        let mut server = Server::new(ServerConfig::default(), specs.clone(), 3).unwrap();
        let mut twig = make_twig(specs, 100, 3).unwrap();
        let reports = drive(&mut server, &mut twig, 5).unwrap();
        assert_eq!(reports.len(), 5);
    }

    #[test]
    fn idle_epochs_do_not_count_toward_guarantee() {
        let specs = vec![catalog::img_dnn()];
        let mut server = Server::new(ServerConfig::default(), specs.clone(), 4).unwrap();
        server.set_load_fraction(0, 0.0).unwrap();
        let mut manager = StaticMapping::new(specs.clone(), 18, DvfsLadder::default()).unwrap();
        let reports = drive(&mut server, &mut manager, 5).unwrap();
        let s = summarize(&reports, &specs);
        assert_eq!(s[0].qos_guarantee_pct, 0.0);
        assert_eq!(s[0].mean_p99_ms, 0.0);
    }
}
