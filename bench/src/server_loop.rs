//! The single-server epoch loop behind `learn_c2`, `exploit_c2` and
//! `learn_k24`: a closed loop, one client, one thread.
//!
//! Each epoch is `manager.decide()` → `SimPlatform::actuate()` →
//! `SimPlatform::observe_epoch()` (= `Server::step`) → `manager.observe()`
//! with `manager = SafetyGovernor<Twig>`. The watchdog is disabled
//! (`watchdog_epochs = u32::MAX`), so validation stays on the path but the
//! governor can never hand the epoch to its safe static allocation: the
//! loop measures the learner, not the watchdog.

use crate::trace::SpanLog;
use crate::window::Window;
use crate::workloads::{
    Workload, EXPLOIT_DIURNAL, EXPLOIT_PRETRAIN_EPOCHS, K24_LOAD, K24_SERVICES, LEARN_C2_LOADS,
    LEARN_EPSILON_EPOCHS, LEARN_WARMUP_EPOCHS,
};
use crate::BenchError;
use twig_core::{GovernorConfig, RewardConfig, SafetyGovernor, TaskManager, Twig, TwigBuilder};
use twig_platform::{Platform, SimPlatform};
use twig_rl::{EpsilonSchedule, MaBdqConfig};
use twig_sim::{
    catalog, Assignment, DvfsLadder, EpochReport, LoadGenerator, Server, ServerConfig, ServiceSpec,
};
use twig_telemetry::Telemetry;

/// Everything one server workload runs on.
pub struct ServerRig {
    /// The simulated socket behind the platform trait.
    pub platform: SimPlatform,
    /// The governed learner.
    pub manager: SafetyGovernor<Twig>,
    /// The hosted services.
    pub specs: Vec<ServiceSpec>,
    /// Telemetry armed on simulator, learner and governor (disabled on
    /// untraced runs).
    pub telemetry: Telemetry,
}

/// The services of a server workload.
pub fn specs_for(workload: Workload) -> Vec<ServiceSpec> {
    match workload {
        Workload::LearnK24 => {
            // The catalog cycled four times; names made unique so reports
            // and telemetry keys stay distinguishable.
            let base = catalog::all();
            (0..K24_SERVICES)
                .map(|i| {
                    let mut spec = base[i % base.len()].clone();
                    spec.name = format!("{}-{}", spec.name, i / base.len());
                    spec
                })
                .collect()
        }
        _ => vec![catalog::masstree(), catalog::moses()],
    }
}

/// The `twig_bench::make_twig` recipe (fast 96/64 net, batch 64, θ = 1,
/// ε 0.1 → 0.005) pinned to one train step per epoch whatever the
/// learning-phase length.
fn build_twig(specs: Vec<ServiceSpec>, learn_epochs: u64, seed: u64) -> Result<Twig, BenchError> {
    Ok(TwigBuilder::new()
        .services(specs)
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
        .train_steps_per_epoch(1)
        .action_stickiness(0.02)
        .seed(seed)
        .build()?)
}

/// A half-period-shifted copy of a diurnal generator, as a replay table.
fn shifted_diurnal(min: f64, max: f64, period: u64) -> Result<LoadGenerator, BenchError> {
    let base = LoadGenerator::diurnal(min, max, period)?;
    let table = (0..period)
        .map(|t| base.fraction_at(t + period / 2))
        .collect();
    Ok(LoadGenerator::replay(table, 1)?)
}

/// Builds and warms a server workload up to its first timed epoch.
///
/// # Errors
///
/// Propagates simulator, learner and governor construction errors and any
/// failure during warm-up.
pub fn setup(
    workload: Workload,
    seed: u64,
    telemetry: Telemetry,
    smoke: bool,
) -> Result<ServerRig, BenchError> {
    let specs = specs_for(workload);
    let config = ServerConfig::default();
    let mut server = Server::new(config.clone(), specs.clone(), seed)?;
    let (learn_epochs, warmup) = match workload {
        Workload::ExploitC2 => {
            let (min, max, period) = EXPLOIT_DIURNAL;
            server.set_load_generator(0, LoadGenerator::diurnal(min, max, period)?)?;
            server.set_load_generator(1, shifted_diurnal(min, max, period)?)?;
            (EXPLOIT_PRETRAIN_EPOCHS, EXPLOIT_PRETRAIN_EPOCHS)
        }
        Workload::LearnK24 => {
            for i in 0..specs.len() {
                server.set_load_fraction(i, K24_LOAD)?;
            }
            (LEARN_EPSILON_EPOCHS, LEARN_WARMUP_EPOCHS)
        }
        _ => {
            for (i, load) in LEARN_C2_LOADS.into_iter().enumerate() {
                server.set_load_fraction(i, load)?;
            }
            (LEARN_EPSILON_EPOCHS, LEARN_WARMUP_EPOCHS)
        }
    };
    // A smoke run keeps the batch-full guarantee and drops the rest.
    let warmup = if smoke { warmup.min(70) } else { warmup };

    let mut twig = build_twig(specs.clone(), learn_epochs, seed)?;
    server.set_telemetry(telemetry.clone());
    twig.set_telemetry(telemetry.clone());
    let mut manager = SafetyGovernor::new(
        twig,
        GovernorConfig {
            services: specs.clone(),
            cores: config.cores,
            dvfs: config.dvfs.clone(),
            watchdog_epochs: u32::MAX,
            ..GovernorConfig::default()
        },
    )?;
    manager.set_telemetry(telemetry.clone());
    let mut platform = SimPlatform::new(server);

    for _ in 0..warmup {
        let assignments = manager.decide()?;
        let report = platform.step(&assignments)?;
        manager.observe(&report)?;
    }
    if workload == Workload::ExploitC2 {
        manager.inner_mut().set_pure_exploitation(true);
    }
    Ok(ServerRig {
        platform,
        manager,
        specs,
        telemetry,
    })
}

/// Why a decision is not one the platform could apply, if it is not.
fn invalid_decision(
    assignments: &[Assignment],
    services: usize,
    cores: usize,
    dvfs: &DvfsLadder,
) -> Option<String> {
    if assignments.len() != services {
        return Some(format!(
            "{} assignments for {services} services",
            assignments.len()
        ));
    }
    for (svc, a) in assignments.iter().enumerate() {
        if a.cores.is_empty() || a.cores.len() > cores {
            return Some(format!(
                "service {svc}: {} cores on a {cores}-core socket",
                a.cores.len()
            ));
        }
        if a.cores.iter().any(|c| c.index() >= cores) {
            return Some(format!("service {svc}: core out of range"));
        }
        if dvfs.index_of(a.freq).is_err() {
            return Some(format!(
                "service {svc}: {} MHz is off the ladder",
                a.freq.mhz()
            ));
        }
    }
    None
}

/// Why a report is not finite, if it is not.
fn nonfinite_report(report: &EpochReport) -> Option<String> {
    if !(report.power_w.is_finite() && report.true_power_w.is_finite()) {
        return Some("non-finite power".into());
    }
    report
        .services
        .iter()
        .find(|s| !(s.p99_ms.is_finite() && s.mean_ms.is_finite()))
        .map(|s| format!("{}: non-finite latency", s.name))
}

/// Runs epochs until `seconds` have passed, recording one span per call
/// into a layer when `log` is on.
pub fn run_window(
    rig: &mut ServerRig,
    seconds: f64,
    rss_probe_at: u64,
    log: &mut SpanLog,
) -> Window {
    let cores = rig.platform.cores();
    let dvfs = rig.platform.dvfs().clone();
    let qos_ms: Vec<f64> = rig.specs.iter().map(|s| s.qos_ms).collect();
    let mut window = Window::open(log, (seconds * 400_000.0) as usize + 16, rss_probe_at);
    let deadline = window.start_ns + (seconds * 1e9) as u64;
    let mut epoch = 0u64;
    loop {
        let whole = log.open("epoch", epoch);
        let outcome = one_epoch(rig, epoch, log, cores, &dvfs, &qos_ms, &mut window);
        log.close(whole);
        let now = window.close_operation(log);
        epoch += 1;
        if let Err(e) = outcome {
            window.fail(format!("epoch {}: {e}", epoch - 1));
            break;
        }
        if now >= deadline {
            break;
        }
    }
    window.finish()
}

fn one_epoch(
    rig: &mut ServerRig,
    epoch: u64,
    log: &mut SpanLog,
    cores: usize,
    dvfs: &DvfsLadder,
    qos_ms: &[f64],
    window: &mut Window,
) -> Result<(), BenchError> {
    let span = log.open("core.decide", epoch);
    let decided = rig.manager.decide();
    log.close(span);
    let assignments = decided?;
    if let Some(why) = invalid_decision(&assignments, qos_ms.len(), cores, dvfs) {
        return Err(why.into());
    }

    let span = log.open("platform.actuate", epoch);
    let actuated = rig.platform.actuate(&assignments);
    log.close(span);
    actuated?;

    let span = log.open("sim.step", epoch);
    let observed = rig.platform.observe_epoch();
    log.close(span);
    let report = observed?;
    if let Some(why) = nonfinite_report(&report) {
        return Err(why.into());
    }

    let span = log.open("core.observe", epoch);
    let absorbed = rig.manager.observe(&report);
    log.close(span);
    absorbed?;

    window.energy_j += report.true_power_w;
    for (svc, target) in report.services.iter().zip(qos_ms) {
        window.requests += svc.completed as u64;
        if svc.offered_rps > 0.0 || svc.completed > 0 {
            window.qos_total += 1;
            window.qos_met += u64::from(svc.p99_ms <= *target);
        }
    }
    Ok(())
}
