//! Ablations of Twig's design choices (beyond the paper's figures).
//!
//! - **Coordination** (`coordination`): Section II-B2 argues that
//!   maintaining one DQN per action dimension/service loses coordination —
//!   "each action is selected independently without considering the global
//!   outcome". This ablation pits Twig-C (one multi-agent BDQ) against two
//!   *independent* Twig-S managers each seeing only its own service (and
//!   each believing it owns the socket). The independent managers collide
//!   on cores and cannot anticipate each other's interference.
//! - **Smoothing window** (`eta`): Section III-B1 smooths the counters over
//!   the last η time steps; "we used η = 5 as empirically it yielded the
//!   best results". The ablation sweeps η.
//! - **Replay prioritisation** (`replay`): the paper uses prioritised
//!   experience replay with α = 0.6; setting α = 0 degrades PER to uniform
//!   sampling, quantifying what prioritisation buys.

use crate::runner::twig_builder;
use crate::{measure, run_sections, server, ExpError, Measured, Options, TextTable, Unit};
use std::fmt::Write as _;
use twig_core::{Mapper, RewardConfig, SystemMonitor, Twig, PEAK_POWER_W, REWARD_POWER_MODEL};
use twig_rl::{Dqn, EpsilonSchedule, MaBdqConfig};
use twig_sim::{catalog, LoadGenerator, ServerConfig, ServiceSpec};

/// Gradient steps per epoch of every ablated learner. `make_twig` lowers
/// its replay ratio to one at `--full`; the ablations keep three at every
/// scale.
const TRAIN_STEPS: u32 = 3;

/// Coordination ablation: one Twig-C vs two oblivious Twig-S managers.
///
/// # Errors
///
/// Propagates simulator and manager errors.
pub fn coordination(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let specs = vec![catalog::masstree(), catalog::moses()];
    let learn = opts.learn_epochs();
    let window = opts.measure_epochs(false);
    writeln!(
        out,
        "Ablation: coordinated multi-agent BDQ vs independent per-service agents"
    )?;
    writeln!(
        out,
        "(masstree @ 30% + moses @ 50%, {window}-epoch window)\n"
    )?;

    let loads = [LoadGenerator::fixed(0.3)?, LoadGenerator::fixed(0.5)?];

    // Coordinated: the real Twig-C.
    let mut twig_c = twig_builder(specs.clone(), learn, opts.seed)
        .train_steps_per_epoch(TRAIN_STEPS)
        .build()?;
    let coordinated = measure(
        &mut server(&specs, &loads, opts.seed)?,
        &mut twig_c,
        learn,
        window,
    )?;

    // Independent: two Twig-S managers, each blind to the other service.
    let mut server = server(&specs, &loads, opts.seed)?;
    let solo = |i: usize, seed: u64| {
        twig_builder(vec![specs[i].clone()], learn, seed)
            .train_steps_per_epoch(TRAIN_STEPS)
            .build()
    };
    let (mut solo_a, mut solo_b) = (solo(0, opts.seed ^ 1)?, solo(1, opts.seed ^ 2)?);
    let mut indep_window = Vec::new();
    for t in 0..(learn + window) {
        let a0 = solo_a.decide()?;
        let a1 = solo_b.decide()?;
        let report = server.step(&[a0[0].clone(), a1[0].clone()])?;
        // Each manager only sees its own service's slice of the world.
        let view = |idx: usize| twig_sim::EpochReport {
            services: vec![report.services[idx].clone()],
            ..report.clone()
        };
        solo_a.observe(&view(0))?;
        solo_b.observe(&view(1))?;
        if t >= learn {
            indep_window.push(report);
        }
    }
    let independent = Measured::new(indep_window, &specs);

    let mut t = TextTable::new(vec![
        "scheme",
        "masstree QoS (%)",
        "moses QoS (%)",
        "energy (J)",
        "core overlap/epoch",
    ]);
    for (name, m) in [
        ("coordinated (twig-c)", &coordinated),
        ("independent agents", &independent),
    ] {
        let overlap: f64 = m
            .window
            .iter()
            .map(|r| {
                let total: usize = r.services.iter().map(|s| s.core_count).sum();
                total.saturating_sub(18) as f64
            })
            .sum::<f64>()
            / m.window.len() as f64;
        t.row(vec![
            name.into(),
            format!("{:.1}", m.summary[0].qos_guarantee_pct),
            format!("{:.1}", m.summary[1].qos_guarantee_pct),
            format!("{:.0}", m.energy),
            format!("{overlap:.1}"),
        ]);
    }
    writeln!(out, "{t}")?;
    Ok(())
}

/// Leads `twig` on `spec` at 50 % load for the learning phase and
/// measures the window after it.
fn at_half_load(spec: &ServiceSpec, twig: &mut Twig, opts: &Options) -> Result<Measured, ExpError> {
    let specs = std::slice::from_ref(spec);
    let mut server = server(specs, &[LoadGenerator::fixed(0.5)?], opts.seed)?;
    measure(
        &mut server,
        twig,
        opts.learn_epochs(),
        opts.measure_epochs(false),
    )
}

/// η smoothing-window ablation.
///
/// # Errors
///
/// Propagates simulator and manager errors.
pub fn eta(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let spec = catalog::masstree();
    writeln!(
        out,
        "Ablation: PMC smoothing window eta (paper: eta = 5), masstree @ 50%\n"
    )?;
    let mut t = TextTable::new(vec!["eta", "QoS guarantee (%)", "energy (J)"]);
    for eta in [1usize, 3, 5, 10] {
        let twig = twig_builder(vec![spec.clone()], opts.learn_epochs(), opts.seed)
            .train_steps_per_epoch(TRAIN_STEPS)
            .build()?;
        // Rebuild with the desired eta via the config path.
        let mut config = twig.config().clone();
        config.eta = eta;
        let m = at_half_load(&spec, &mut Twig::new(config)?, opts)?;
        t.row(vec![
            eta.to_string(),
            format!("{:.1}", m.summary[0].qos_guarantee_pct),
            format!("{:.0}", m.energy),
        ]);
    }
    writeln!(out, "{t}")?;
    Ok(())
}

/// PER-vs-uniform replay ablation (α = 0 disables prioritisation).
///
/// # Errors
///
/// Propagates simulator and manager errors.
pub fn replay(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let spec = catalog::img_dnn();
    writeln!(
        out,
        "Ablation: prioritised (alpha = 0.6) vs uniform (alpha = 0) replay, img-dnn @ 50%\n"
    )?;
    let mut t = TextTable::new(vec!["replay", "QoS guarantee (%)", "energy (J)"]);
    for (label, alpha) in [("prioritised", 0.6), ("uniform", 0.0)] {
        let mut twig = twig_builder(vec![spec.clone()], opts.learn_epochs(), opts.seed)
            .train_steps_per_epoch(TRAIN_STEPS)
            .agent(MaBdqConfig {
                per_alpha: alpha,
                ..MaBdqConfig::default()
            })
            .build()?;
        let m = at_half_load(&spec, &mut twig, opts)?;
        t.row(vec![
            label.into(),
            format!("{:.1}", m.summary[0].qos_guarantee_pct),
            format!("{:.0}", m.energy),
        ]);
    }
    writeln!(out, "{t}")?;
    Ok(())
}

/// Branching ablation: the paper's BDQ (18 + 9 branch outputs) vs a vanilla
/// DQN over the joint 18 x 9 action space (Section II-B1's
/// combinatorial-explosion argument). Both drive the same service with the
/// same reward; the DQN must rank 162 joint actions from the same number of
/// samples the BDQ spends on 27 branch outputs.
///
/// # Errors
///
/// Propagates simulator and learning errors.
pub fn branching(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let spec = catalog::masstree();
    let cfg = ServerConfig::default();
    let learn = opts.learn_epochs();
    writeln!(
        out,
        "Ablation: branching (BDQ) vs joint-action (vanilla DQN), masstree @ 50%\n"
    )?;

    // Twig-S (branching).
    let mut twig = twig_builder(vec![spec.clone()], learn, opts.seed)
        .train_steps_per_epoch(TRAIN_STEPS)
        .build()?;
    let bdq = at_half_load(&spec, &mut twig, opts)?;
    let twig_params = twig.agent().param_count();

    // Vanilla DQN over the joint (cores, dvfs) space, wired up with the
    // same monitor, reward and mapper Twig uses.
    let specs = std::slice::from_ref(&spec);
    let mut server = server(specs, &[LoadGenerator::fixed(0.5)?], opts.seed)?;
    let dvfs_levels = cfg.dvfs.len();
    let learner = MaBdqConfig {
        seed: opts.seed,
        ..MaBdqConfig::default()
    };
    let mut dqn = Dqn::new(&learner, cfg.cores * dvfs_levels)?;
    let dqn_params = dqn.param_count();
    let mut monitor = SystemMonitor::new(1, 5, cfg.cores)?;
    let mapper = Mapper::new(cfg.cores)?;
    let reward = RewardConfig {
        theta: 1.0,
        ..RewardConfig::default()
    };
    let schedule = EpsilonSchedule::new(0.1, 0.005, learn * 3 / 5, learn);
    let mut dqn_window = Vec::new();
    let mut pending: Option<(Vec<f32>, usize)> = None;
    for t in 0..(learn + opts.measure_epochs(false)) {
        let state = monitor.state(0)?;
        let action = dqn.select_action(&state, schedule.value_at(t))?;
        let (cores, dvfs_idx) = (action / dvfs_levels + 1, action % dvfs_levels);
        let assignments = mapper.assign(&[(cores, cfg.dvfs.frequency_at(dvfs_idx)?)])?;
        let report = server.step(&assignments)?;
        let svc = &report.services[0];
        monitor.update(0, &svc.pmcs)?;
        let next_state = monitor.state(0)?;
        if let Some((prev_state, prev_action)) = pending.take() {
            let (pc, pd) = (prev_action / dvfs_levels + 1, prev_action % dvfs_levels);
            let est = REWARD_POWER_MODEL.estimate(svc.load_fraction, pc, pd);
            let r = reward.reward(
                svc.p99_ms,
                spec.qos_ms,
                reward.power_reward(PEAK_POWER_W, est),
            );
            dqn.observe(&prev_state, prev_action, r as f32, &next_state)?;
            for _ in 0..TRAIN_STEPS {
                dqn.train_step()?;
            }
        }
        pending = Some((state, action));
        if t >= learn {
            dqn_window.push(report);
        }
    }
    let joint = Measured::new(dqn_window, specs);

    let mut t = TextTable::new(vec![
        "learner",
        "outputs",
        "parameters",
        "QoS guarantee (%)",
        "energy (J)",
    ]);
    for (name, outputs, params, m) in [
        ("bdq (twig-s)", cfg.cores + dvfs_levels, twig_params, &bdq),
        ("joint dqn", cfg.cores * dvfs_levels, dqn_params, &joint),
    ] {
        t.row(vec![
            name.into(),
            outputs.to_string(),
            params.to_string(),
            format!("{:.1}", m.summary[0].qos_guarantee_pct),
            format!("{:.0}", m.energy),
        ]);
    }
    writeln!(out, "{t}")?;
    Ok(())
}

/// Runs every ablation as an independent fleet unit (`--jobs` parallel),
/// appending the sections to `out` in a fixed order.
///
/// # Errors
///
/// Propagates the individual ablation errors, naming failed units.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    type Section = fn(&mut String, &Options) -> Result<(), ExpError>;
    let sections: [(&str, Section); 4] = [
        ("coordination", coordination),
        ("eta", eta),
        ("replay", replay),
        ("branching", branching),
    ];
    let units = sections
        .into_iter()
        .map(|(name, section)| {
            Unit::new(name, move |_seed| {
                let mut s = String::new();
                section(&mut s, opts)?;
                s.push('\n');
                Ok(s)
            })
        })
        .collect();
    run_sections(out, units, opts)?;
    Ok(())
}
