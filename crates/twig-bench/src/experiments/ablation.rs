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

use crate::{
    drive, run_sections, summarize, total_energy, window, ExpError, Options, TextTable, Unit,
};
use std::fmt::Write as _;
use twig_core::{Eq2PowerModel, Mapper, RewardConfig, SystemMonitor, Twig, TwigBuilder};
use twig_rl::{Dqn, DqnConfig, EpsilonSchedule, MaBdqConfig};
use twig_sim::{catalog, Server, ServerConfig};

fn scaled_twig(
    services: Vec<twig_sim::ServiceSpec>,
    learn: u64,
    seed: u64,
    mutate: impl FnOnce(TwigBuilder) -> TwigBuilder,
) -> Result<Twig, ExpError> {
    let builder = TwigBuilder::new()
        .services(services)
        .epsilon(EpsilonSchedule::new(0.1, 0.005, learn * 3 / 5, learn))
        .agent(MaBdqConfig::default())
        .reward(RewardConfig {
            theta: 1.0,
            ..RewardConfig::default()
        })
        .train_steps_per_epoch(3)
        .action_stickiness(0.02)
        .seed(seed);
    Ok(mutate(builder).build()?)
}

/// Coordination ablation: one Twig-C vs two oblivious Twig-S managers.
///
/// # Errors
///
/// Propagates simulator and manager errors.
pub fn coordination(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let specs = vec![catalog::masstree(), catalog::moses()];
    let learn = opts.learn_epochs();
    let measure = opts.measure_epochs(false);
    writeln!(
        out,
        "Ablation: coordinated multi-agent BDQ vs independent per-service agents"
    )?;
    writeln!(
        out,
        "(masstree @ 30% + moses @ 50%, {measure}-epoch window)\n"
    )?;

    // Coordinated: the real Twig-C.
    let mut server = Server::new(ServerConfig::default(), specs.clone(), opts.seed)?;
    server.set_load_fraction(0, 0.3)?;
    server.set_load_fraction(1, 0.5)?;
    let mut twig_c = scaled_twig(specs.clone(), learn, opts.seed, |b| b)?;
    let reports = drive(&mut server, &mut twig_c, learn + measure)?;
    let coord_tail = window(&reports, measure);

    // Independent: two Twig-S managers, each blind to the other service.
    let mut server = Server::new(ServerConfig::default(), specs.clone(), opts.seed)?;
    server.set_load_fraction(0, 0.3)?;
    server.set_load_fraction(1, 0.5)?;
    let mut solo_a = scaled_twig(vec![specs[0].clone()], learn, opts.seed ^ 1, |b| b)?;
    let mut solo_b = scaled_twig(vec![specs[1].clone()], learn, opts.seed ^ 2, |b| b)?;
    let mut indep_reports = Vec::new();
    for _ in 0..(learn + measure) {
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
        indep_reports.push(report);
    }
    let indep_tail = window(&indep_reports, measure);

    let mut t = TextTable::new(vec![
        "scheme",
        "masstree QoS (%)",
        "moses QoS (%)",
        "energy (J)",
        "core overlap/epoch",
    ]);
    for (name, tail) in [
        ("coordinated (twig-c)", coord_tail),
        ("independent agents", indep_tail),
    ] {
        let s = summarize(tail, &specs);
        let overlap: f64 = tail
            .iter()
            .map(|r| {
                let total: usize = r.services.iter().map(|s| s.core_count).sum();
                total.saturating_sub(18) as f64
            })
            .sum::<f64>()
            / tail.len() as f64;
        t.row(vec![
            name.into(),
            format!("{:.1}", s[0].qos_guarantee_pct),
            format!("{:.1}", s[1].qos_guarantee_pct),
            format!("{:.0}", total_energy(tail)),
            format!("{overlap:.1}"),
        ]);
    }
    writeln!(out, "{t}")?;
    Ok(())
}

/// η smoothing-window ablation.
///
/// # Errors
///
/// Propagates simulator and manager errors.
pub fn eta(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let spec = catalog::masstree();
    let learn = opts.learn_epochs();
    let measure = opts.measure_epochs(false);
    writeln!(
        out,
        "Ablation: PMC smoothing window eta (paper: eta = 5), masstree @ 50%\n"
    )?;
    let mut t = TextTable::new(vec!["eta", "QoS guarantee (%)", "energy (J)"]);
    for eta in [1usize, 3, 5, 10] {
        let mut server = Server::new(ServerConfig::default(), vec![spec.clone()], opts.seed)?;
        server.set_load_fraction(0, 0.5)?;
        let mut twig = scaled_twig(vec![spec.clone()], learn, opts.seed, |b| b)?;
        // Rebuild with the desired eta via the config path.
        let mut config = twig.config().clone();
        config.eta = eta;
        twig = Twig::new(config)?;
        let reports = drive(&mut server, &mut twig, learn + measure)?;
        let tail = window(&reports, measure);
        let s = summarize(tail, std::slice::from_ref(&spec));
        t.row(vec![
            eta.to_string(),
            format!("{:.1}", s[0].qos_guarantee_pct),
            format!("{:.0}", total_energy(tail)),
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
    let learn = opts.learn_epochs();
    let measure = opts.measure_epochs(false);
    writeln!(
        out,
        "Ablation: prioritised (alpha = 0.6) vs uniform (alpha = 0) replay, img-dnn @ 50%\n"
    )?;
    let mut t = TextTable::new(vec!["replay", "QoS guarantee (%)", "energy (J)"]);
    for (label, alpha) in [("prioritised", 0.6), ("uniform", 0.0)] {
        let mut server = Server::new(ServerConfig::default(), vec![spec.clone()], opts.seed)?;
        server.set_load_fraction(0, 0.5)?;
        let mut twig = scaled_twig(vec![spec.clone()], learn, opts.seed, |b| {
            b.agent(MaBdqConfig {
                per_alpha: alpha,
                ..MaBdqConfig::default()
            })
        })?;
        let reports = drive(&mut server, &mut twig, learn + measure)?;
        let tail = window(&reports, measure);
        let s = summarize(tail, std::slice::from_ref(&spec));
        t.row(vec![
            label.into(),
            format!("{:.1}", s[0].qos_guarantee_pct),
            format!("{:.0}", total_energy(tail)),
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
    let measure = opts.measure_epochs(false);
    writeln!(
        out,
        "Ablation: branching (BDQ) vs joint-action (vanilla DQN), masstree @ 50%\n"
    )?;

    // Twig-S (branching).
    let mut server = Server::new(cfg.clone(), vec![spec.clone()], opts.seed)?;
    server.set_load_fraction(0, 0.5)?;
    let mut twig = scaled_twig(vec![spec.clone()], learn, opts.seed, |b| b)?;
    let reports = drive(&mut server, &mut twig, learn + measure)?;
    let twig_tail = window(&reports, measure);
    let twig_params = twig.agent().param_count();

    // Vanilla DQN over the joint (cores, dvfs) space, wired up with the
    // same monitor, reward and mapper Twig uses.
    let mut server = Server::new(cfg.clone(), vec![spec.clone()], opts.seed)?;
    server.set_load_fraction(0, 0.5)?;
    let dvfs_levels = cfg.dvfs.len();
    let mut dqn = Dqn::new(DqnConfig {
        state_dim: twig_sim::NUM_COUNTERS,
        actions: cfg.cores * dvfs_levels,
        seed: opts.seed,
        ..DqnConfig::default()
    })?;
    let dqn_params = dqn.param_count();
    let mut monitor = SystemMonitor::new(1, 5, cfg.cores)?;
    let mapper = Mapper::new(cfg.cores)?;
    let reward = RewardConfig {
        theta: 1.0,
        ..RewardConfig::default()
    };
    let power = Eq2PowerModel::default();
    let schedule = EpsilonSchedule::new(0.1, 0.005, learn * 3 / 5, learn);
    let mut dqn_reports = Vec::new();
    let mut pending: Option<(Vec<f32>, usize)> = None;
    for t in 0..(learn + measure) {
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
            let est = power.estimate(svc.load_fraction, pc, pd);
            let r = reward.reward(svc.p99_ms, spec.qos_ms, reward.power_reward(130.0, est));
            dqn.observe(&prev_state, prev_action, r as f32, &next_state)?;
            for _ in 0..3 {
                dqn.train_step()?;
            }
        }
        pending = Some((state, action));
        dqn_reports.push(report);
    }
    let dqn_tail = window(&dqn_reports, measure);

    let mut t = TextTable::new(vec![
        "learner",
        "outputs",
        "parameters",
        "QoS guarantee (%)",
        "energy (J)",
    ]);
    for (name, outputs, params, tail) in [
        (
            "bdq (twig-s)",
            cfg.cores + dvfs_levels,
            twig_params,
            twig_tail,
        ),
        ("joint dqn", cfg.cores * dvfs_levels, dqn_params, dqn_tail),
    ] {
        let s = summarize(tail, std::slice::from_ref(&spec));
        t.row(vec![
            name.into(),
            outputs.to_string(),
            params.to_string(),
            format!("{:.1}", s[0].qos_guarantee_pct),
            format!("{:.0}", total_energy(tail)),
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
