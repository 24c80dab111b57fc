//! Table III — per-epoch overhead of Twig's components.
//!
//! The paper reports, for its Xeon + Tesla P100 testbed: gradient descent
//! 25 ms (GPU) / 48 ms (CPU), PMC gathering + preprocessing 2 ms, core
//! allocation & DVFS change 7 ms (dominated by sysfs), total 34/57 ms, all
//! well under the 1 s decision interval. This experiment times the *same
//! components of this implementation* (pure CPU, no Python/TensorFlow), so
//! absolute values differ; what must hold is that the total stays well
//! under the decision interval, gradient descent dominates, and dropping it
//! (pure exploitation) removes most of the cost.

use crate::{drive, make_twig, ExpError, Options, TextTable};
use std::fmt::Write as _;
use std::time::Instant;
use twig_cluster::{Coordinator, CoordinatorConfig, LoadBalancer};
use twig_core::{ClusterView, NodeId, NodeView};
use twig_core::{
    EpochScheduler, GovernorConfig, Mapper, SafetyGovernor, SchedulerConfig, ScratchStore,
    SimClock, SystemMonitor,
};
use twig_nn::count_alloc;
use twig_rl::{MaBdq, MaBdqConfig, MultiTransition};
use twig_sim::pmc::{synthesize, Activity};
use twig_sim::{catalog, Frequency, Server, ServerConfig};
use twig_telemetry::Telemetry;

fn time_ms<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1000.0 / iters as f64
}

/// Mean wall-clock milliseconds per decision epoch of the full colocated
/// control loop, with or without telemetry armed on both the simulator and
/// the manager. Used to bound the observability subsystem's own overhead.
///
/// # Errors
///
/// Propagates manager and simulator errors.
pub fn loop_ms_per_epoch(
    telemetry: Option<Telemetry>,
    epochs: u64,
    seed: u64,
) -> Result<f64, ExpError> {
    let specs = vec![catalog::masstree(), catalog::moses()];
    let mut server = Server::new(ServerConfig::default(), specs.clone(), seed)?;
    server.set_load_fraction(0, 0.5)?;
    server.set_load_fraction(1, 0.4)?;
    let mut twig = make_twig(specs, epochs, seed)?;
    if let Some(tl) = telemetry {
        server.set_telemetry(tl.clone());
        twig.set_telemetry(tl);
    }
    let start = Instant::now();
    drive(&mut server, &mut twig, epochs)?;
    Ok(start.elapsed().as_secs_f64() * 1000.0 / epochs as f64)
}

/// Mean wall-clock milliseconds per decision epoch of the governed
/// colocated control loop, with periodic checkpointing armed (every 5
/// epochs) or unarmed. Used to bound the crash-safety subsystem's
/// steady-state cost: serialize + CRC + atomic write + generation pruning.
///
/// # Errors
///
/// Propagates manager, simulator and store errors.
pub fn ckpt_loop_ms_per_epoch(armed: bool, epochs: u64, seed: u64) -> Result<f64, ExpError> {
    let specs = vec![catalog::masstree(), catalog::moses()];
    let cfg = ServerConfig::default();
    let mut server = Server::new(cfg.clone(), specs.clone(), seed)?;
    server.set_load_fraction(0, 0.5)?;
    server.set_load_fraction(1, 0.4)?;
    let twig = make_twig(specs.clone(), epochs, seed)?;
    let mut gov = SafetyGovernor::new(
        twig,
        GovernorConfig {
            services: specs,
            cores: cfg.cores,
            dvfs: cfg.dvfs,
            ..GovernorConfig::default()
        },
    )?;
    // The store, and its directory, lives until the timed run is over.
    let _scratch = if armed {
        let store = ScratchStore::create("table3-ckpt", 3)?;
        gov.arm_checkpointing(store.clone(), 5)?;
        Some(store)
    } else {
        None
    };
    let start = Instant::now();
    drive(&mut server, &mut gov, epochs)?;
    Ok(start.elapsed().as_secs_f64() * 1000.0 / epochs as f64)
}

/// Mean wall-clock milliseconds of deadline-scheduler bookkeeping for one
/// full epoch of phase metering — begin, PMC freshness check, inference
/// directive, four learn-chunk grants, actuation scoring, close — against a
/// virtual clock, so only the state machine itself is on the clock.
///
/// # Errors
///
/// Propagates scheduler construction errors.
pub fn scheduler_bookkeeping_ms(iters: u32) -> Result<f64, ExpError> {
    let clock = SimClock::new();
    let mut sched = EpochScheduler::new(SchedulerConfig::default(), clock.clone())?;
    Ok(time_ms(iters, || {
        sched.begin_epoch();
        clock.advance(5.0);
        let _ = sched.pmc_window_fresh(5.0);
        let _ = sched.inference_directive();
        clock.advance(10.0);
        for _ in 0..4 {
            let _ = sched.learn_directive();
            clock.advance(20.0);
        }
        let _ = sched.actuation_attempt(5.0);
        sched.end_epoch();
        clock.advance(900.0);
    }))
}

/// Mean wall-clock milliseconds of cluster control-plane bookkeeping for
/// one epoch — both heartbeat channels, the cluster-view rebuild, the
/// repair planner's scan, the migration-ladder tick, and a full
/// capacity-weighted routing pass over a 4-node, 3-service,
/// replication-2 fleet. Serving is excluded: this bounds what the
/// coordinator + front-end balancer themselves cost each epoch.
///
/// # Errors
///
/// Propagates balancer and coordinator construction errors.
pub fn cluster_bookkeeping_ms(iters: u32) -> Result<f64, ExpError> {
    let cores = [18usize, 18, 18, 12];
    let mhz = [2600u32, 2600, 2600, 1800];
    let weights: Vec<u64> = cores
        .iter()
        .zip(&mhz)
        .map(|(&c, &m)| c as u64 * u64::from(m))
        .collect();
    let services = 3;
    let nodes = cores.len();
    let mut balancer = LoadBalancer::new(services, weights, 2)?;
    let mut coord = Coordinator::new(services, nodes, 2, CoordinatorConfig::default())?;
    for s in 0..services {
        coord.admit_replica(s, NodeId(s % nodes))?;
        coord.admit_replica(s, NodeId((s + 1) % nodes))?;
    }
    balancer.sync_table(coord.placement());
    let hb = vec![true; nodes];
    let demand = vec![2160u64, 900, 990];
    Ok(time_ms(iters, || {
        balancer.observe_heartbeats(&hb);
        let _ = coord.record_heartbeats(&hb);
        let view = ClusterView {
            nodes: (0..nodes)
                .map(|i| NodeView {
                    id: NodeId(i),
                    alive: true,
                    cores: cores[i],
                    max_freq_mhz: mhz[i],
                    hosted_replicas: (0..services)
                        .filter(|&s| coord.placement().hosts(s, NodeId(i)))
                        .count(),
                })
                .collect(),
        };
        let _ = coord.plan_repairs(&view);
        let _ = coord.advance_transfers(|| false);
        let cap: Vec<Vec<u64>> = (0..nodes).map(|_| vec![2400u64; services]).collect();
        let reachable: Vec<Vec<bool>> = (0..nodes)
            .map(|i| {
                (0..services)
                    .map(|s| coord.placement().hosts(s, NodeId(i)))
                    .collect()
            })
            .collect();
        let out = balancer.route(&demand, &cap, &reachable).expect("route");
        assert!(out.conserved, "steady-state routing must conserve");
    }))
}

/// Per-epoch budget for federation-round bookkeeping. An optimized
/// build measures ~0.5 ms standalone; the 5 ms bound leaves wall-clock
/// headroom for core contention when the suite fleet runs this unit
/// alongside others, and still sits two orders of magnitude under the
/// 1 s decision interval. The round is dominated by codec + median
/// arithmetic over the full parameter vector, ~8× slower without
/// optimizations, so debug builds get a proportionally relaxed bound.
fn fed_budget_ms() -> f64 {
    if cfg!(debug_assertions) {
        40.0
    } else {
        5.0
    }
}

/// Mean wall-clock milliseconds per decision epoch of federation-round
/// bookkeeping, amortized over the default 10-epoch round period. One
/// round is everything the weight-exchange plane computes for a
/// 4-contributor fleet at the default network size: every contributor
/// encodes its weights-only checkpoint through the versioned codec, the
/// plane decodes and re-screens all four payloads (CRC, shape,
/// finiteness), the Byzantine screen judges the four parameter vectors,
/// and the capacity-weighted merge runs on the recipient's checkpoint
/// struct, which the recipient adopts in process (no second codec pass).
///
/// # Errors
///
/// Propagates agent construction and screening-ladder errors.
pub fn federation_bookkeeping_ms(iters: u32) -> Result<f64, ExpError> {
    use twig_rl::federate::{check_finite, decode_payload, merge_round, same_shape, weights_only};
    use twig_rl::{encode_checkpoint, ByzantineScreen, Contribution, ScreenConfig};

    let contributors = 4usize;
    let round_period = 10.0;
    let agent = MaBdq::new(MaBdqConfig {
        agents: 2,
        ..MaBdqConfig::default()
    })?;
    let reference = agent.save_checkpoint();
    let weights = [46_800u64, 46_800, 46_800, 21_600];
    let mut screen = ByzantineScreen::new(ScreenConfig::default())?;
    let round_ms = time_ms(iters, || {
        let payloads: Vec<Vec<u8>> = (0..contributors)
            .map(|_| encode_checkpoint(&weights_only(reference.clone())))
            .collect();
        let decoded: Vec<_> = payloads
            .iter()
            .map(|bytes| {
                let ckpt = decode_payload(bytes).expect("decode");
                assert!(same_shape(&ckpt, &reference), "shape");
                check_finite(&ckpt).expect("finite");
                ckpt
            })
            .collect();
        let params: Vec<&[f32]> = decoded.iter().map(|c| c.params.as_slice()).collect();
        for verdict in screen.screen(&params) {
            verdict.expect("screen");
        }
        let contributions: Vec<Contribution> = decoded
            .into_iter()
            .enumerate()
            .map(|(n, checkpoint)| Contribution {
                contributor: n,
                weight: weights[n],
                checkpoint,
            })
            .collect();
        std::hint::black_box(merge_round(&reference, &contributions).expect("merge"));
    });
    Ok(round_ms / round_period)
}

/// Regenerates Table III with this implementation's timings, appending to `out`.
///
/// # Errors
///
/// Propagates component construction errors.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let paper_net = opts.full;
    let config = if paper_net {
        MaBdqConfig {
            agents: 2,
            ..MaBdqConfig::paper()
        }
    } else {
        MaBdqConfig {
            agents: 2,
            ..MaBdqConfig::default()
        }
    };
    writeln!(out,
        "Table III: per-epoch overhead ({} network, GEMM kernel {}; paper values: GD 25/48 ms, PMC 2 ms, map 7 ms)\n",
        if paper_net { "paper-size 512/256" } else { "fast 96/64" },
        twig_nn::kernel()
    )?;
    let mut agent = MaBdq::new(config)?;
    let state = vec![vec![0.5f32; 11]; 2];
    for _ in 0..agent.config().batch_size {
        agent.observe(MultiTransition {
            states: state.clone(),
            actions: vec![vec![3, 2]; 2],
            rewards: vec![1.0, 1.0],
            next_states: state.clone(),
        })?;
    }

    // 1. Gradient descent (one prioritised minibatch backprop).
    let gd_ms = time_ms(20, || {
        agent.train_step().expect("train").expect("batch full");
    });

    // 2. Gather and pre-process PMCs (synthesis stands in for the read;
    //    smoothing + scaling is Twig's preprocessing).
    let mut monitor = SystemMonitor::new(2, 5, 18)?;
    let spec = catalog::masstree();
    let mut rng = twig_stats::rng::StepRng::new(1, 7);
    let act = Activity {
        weighted_busy_core_s: 4.0,
        busy_core_s: 4.0,
        cpu_work_ms: 2000.0,
        mem_work_ms: 800.0,
        cache_pressure: 0.2,
        clock_ghz: 2.0,
    };
    let pmc_ms = time_ms(500, || {
        for svc in 0..2 {
            let sample = synthesize(&spec, &act, &mut rng);
            monitor.update(svc, &sample).expect("update");
        }
        let _ = monitor.states().expect("states");
    });

    // 2b. PMC data size per service: 11 counters x 8 bytes x 4 samples/s in
    //     the paper's framing; here one f64 sample per second per counter.
    let pmc_bytes = 11 * std::mem::size_of::<f64>();

    // 3. Core allocation & DVFS change (mapping decision; the sysfs write
    //    the paper measures has no analogue here).
    let mapper = Mapper::new(18)?;
    let map_ms = time_ms(2000, || {
        let _ = mapper
            .assign(&[
                (7, Frequency::from_mhz(1600)),
                (5, Frequency::from_mhz(1900)),
            ])
            .expect("assign");
    });

    // 4. Action selection (amortised into the gradient row in the paper).
    let select_ms = time_ms(200, || {
        let _ = agent.select_actions(&state, 0.1).expect("select");
    });

    // 4b. Heap-allocation discipline of the steady-state hot path. The
    //     `twig-bench` binary installs the counting global allocator from
    //     twig-nn; in other hosts (e.g. the library test harness with the
    //     system allocator) the counter never arms and the row degrades to
    //     "n/a". When armed, the count must be exactly zero — the
    //     scratch-buffer regression gate, inline in the overhead table —
    //     and it is process-wide, which is why `run_all` runs this
    //     experiment with no other unit in flight.
    let alloc_cell = if count_alloc::counter_armed() {
        let mut actions: Vec<Vec<usize>> = Vec::new();
        agent.select_actions_into(&state, 0.1, &mut actions)?;
        let start = count_alloc::allocation_count();
        for _ in 0..5 {
            agent.train_step()?.ok_or("batch available")?;
            agent.select_actions_into(&state, 0.1, &mut actions)?;
        }
        let delta = count_alloc::allocations_since(start);
        assert_eq!(
            delta, 0,
            "steady-state decide+learn allocated {delta} times over 5 epochs"
        );
        format!("{delta} allocs")
    } else {
        "n/a (system allocator)".into()
    };

    // 5. Telemetry instrumentation: the full colocated control loop with
    //    the no-op sink armed vs telemetry compiled in but disabled. The
    //    difference is what observability costs when switched on.
    let loop_epochs = if opts.full { 200 } else { 60 };
    let tele_off_ms = loop_ms_per_epoch(None, loop_epochs, opts.seed)?;
    let tele_on_ms = loop_ms_per_epoch(Some(Telemetry::enabled()), loop_epochs, opts.seed)?;
    let tele_delta_ms = (tele_on_ms - tele_off_ms).max(0.0);

    // 6. Crash-safe checkpointing: the governed loop with periodic
    //    atomic checkpoint writes (every 5 epochs) vs unarmed.
    let ckpt_off_ms = ckpt_loop_ms_per_epoch(false, loop_epochs, opts.seed)?;
    let ckpt_on_ms = ckpt_loop_ms_per_epoch(true, loop_epochs, opts.seed)?;
    let ckpt_delta_ms = (ckpt_on_ms - ckpt_off_ms).max(0.0);

    // 7. Deadline-scheduler bookkeeping: the epoch scheduler's own phase
    //    metering (budget checks, ladder, backoff arithmetic) for one full
    //    epoch, timed against a virtual clock.
    let sched_ms = scheduler_bookkeeping_ms(5000)?;

    // 8. Cluster control-plane bookkeeping: heartbeats, repair planning,
    //    the migration ladder and deterministic routing for a 4-node
    //    fleet. The ≤ 0.5 ms budget keeps the whole control plane under
    //    0.05% of the 1 s decision interval.
    let cluster_ms = cluster_bookkeeping_ms(2000)?;
    assert!(
        cluster_ms <= 0.5,
        "cluster control-plane bookkeeping {cluster_ms:.4} ms/epoch exceeds the 0.5 ms budget"
    );

    // 9. Federation-round bookkeeping: one full weight-exchange round
    //    (4× encode, 4× decode + screen ladder, Byzantine screen,
    //    capacity-weighted merge, re-encode), amortized over the default
    //    10-epoch round period. The budget keeps federation well under
    //    1% of the 1 s decision interval even with fleet contention.
    let fed_ms = federation_bookkeeping_ms(if opts.full { 200 } else { 50 })?;
    assert!(
        fed_ms <= fed_budget_ms(),
        "federation bookkeeping {fed_ms:.4} ms/epoch amortized exceeds the {} ms budget",
        fed_budget_ms()
    );

    let total = gd_ms + pmc_ms + map_ms + select_ms;
    let exploit_total = pmc_ms + map_ms + select_ms;

    let mut t = TextTable::new(vec!["#", "component", "this impl (ms)", "paper (ms)"]);
    t.row(vec![
        "1".into(),
        "gradient descent computation".into(),
        format!("{gd_ms:.3}"),
        "25 (GPU) / 48 (CPU)".into(),
    ]);
    t.row(vec![
        "2".into(),
        "gather and pre-process PMCs".into(),
        format!("{pmc_ms:.3}"),
        "2".into(),
    ]);
    t.row(vec![
        "2".into(),
        "PMC data size per service".into(),
        format!("{pmc_bytes} B/s"),
        "352 B/s".into(),
    ]);
    t.row(vec![
        "3".into(),
        "core allocation & DVFS change".into(),
        format!("{map_ms:.3}"),
        "7".into(),
    ]);
    t.row(vec![
        "4".into(),
        "action selection (forward pass)".into(),
        format!("{select_ms:.3}"),
        "(in 1)".into(),
    ]);
    t.row(vec![
        "4".into(),
        "steady-state heap allocations (5 epochs)".into(),
        alloc_cell,
        "n/a (new)".into(),
    ]);
    t.row(vec![
        "5".into(),
        "telemetry (enabled vs disabled)".into(),
        format!("{tele_delta_ms:.3}"),
        "n/a (new)".into(),
    ]);
    t.row(vec![
        "6".into(),
        "checkpointing (armed vs unarmed)".into(),
        format!("{ckpt_delta_ms:.3}"),
        "n/a (new)".into(),
    ]);
    t.row(vec![
        "7".into(),
        "deadline-scheduler bookkeeping".into(),
        format!("{sched_ms:.4}"),
        "n/a (new)".into(),
    ]);
    t.row(vec![
        "8".into(),
        "cluster coordinator + balancer".into(),
        format!("{cluster_ms:.4}"),
        "n/a (new)".into(),
    ]);
    t.row(vec![
        "9".into(),
        "federation round (amortized)".into(),
        format!("{fed_ms:.4}"),
        "n/a (new)".into(),
    ]);
    t.row(vec![
        "".into(),
        "total per 1 s epoch".into(),
        format!("{total:.3}"),
        "34 / 57".into(),
    ]);
    t.row(vec![
        "".into(),
        "total, pure exploitation".into(),
        format!("{exploit_total:.3}"),
        "<10 (est.)".into(),
    ]);
    writeln!(out, "{t}")?;
    writeln!(out,
        "overhead fraction of the 1 s interval: {:.2}% (paper: <5%); pure exploitation {:.2}% (paper: <1%)",
        total / 10.0,
        exploit_total / 10.0
    )?;
    writeln!(out,
        "full loop mean: {tele_off_ms:.3} ms/epoch telemetry-off, {tele_on_ms:.3} ms/epoch telemetry-on over {loop_epochs} epochs; instrumentation adds {tele_delta_ms:.3} ms ({:.3}% of the 1 s interval)",
        tele_delta_ms / 10.0
    )?;
    writeln!(out,
        "governed loop mean: {ckpt_off_ms:.3} ms/epoch unarmed, {ckpt_on_ms:.3} ms/epoch with checkpoints every 5 epochs; crash safety adds {ckpt_delta_ms:.3} ms ({:.3}% of the 1 s interval)",
        ckpt_delta_ms / 10.0
    )?;
    writeln!(out,
        "deadline scheduler bookkeeping: {sched_ms:.4} ms/epoch ({:.4}% of the 1 s interval) — metering every phase costs a rounding error of the budgets it protects",
        sched_ms / 10.0
    )?;
    writeln!(out,
        "cluster control plane: {cluster_ms:.4} ms/epoch for a 4-node fleet (budget 0.5 ms) — heartbeats, repair planning, the migration ladder and exact routing together stay under 0.05% of the interval",
    )?;
    writeln!(out,
        "federation round: {fed_ms:.4} ms/epoch amortized over the 10-epoch period (budget {} ms) — codec, screening ladder, Byzantine screen and weighted merge for 4 contributors cost well under 1% of the interval",
        fed_budget_ms()
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_stays_under_decision_interval() {
        // The fast network must decide + train in well under 1 s.
        run_to(&mut String::new(), &Options::default()).unwrap();
    }

    #[test]
    fn telemetry_overhead_is_negligible() {
        // Arming the no-op sink must cost less than 1% of the 1 s decision
        // interval per epoch (ISSUE 2 acceptance bound: < 10 ms).
        let off = loop_ms_per_epoch(None, 40, 7).unwrap();
        let on = loop_ms_per_epoch(Some(Telemetry::enabled()), 40, 7).unwrap();
        let delta = on - off;
        assert!(
            delta < 10.0,
            "telemetry overhead {delta:.3} ms/epoch exceeds 1% of the epoch"
        );
    }

    #[test]
    fn scheduler_bookkeeping_is_bounded() {
        // The epoch scheduler meters phases against a 1000 ms interval; its
        // own bookkeeping (ISSUE 5 acceptance bound) must stay under
        // 0.1 ms per epoch — three orders of magnitude below the interval.
        let ms = scheduler_bookkeeping_ms(5000).unwrap();
        assert!(
            ms < 0.1,
            "scheduler bookkeeping {ms:.4} ms/epoch exceeds the 0.1 ms bound"
        );
    }

    #[test]
    fn cluster_bookkeeping_is_bounded() {
        // The whole cluster control plane — both heartbeat channels,
        // repair planning, the migration ladder, deterministic routing —
        // must cost at most 0.5 ms per epoch (ISSUE 6 acceptance bound).
        let ms = cluster_bookkeeping_ms(2000).unwrap();
        assert!(
            ms <= 0.5,
            "cluster bookkeeping {ms:.4} ms/epoch exceeds the 0.5 ms budget"
        );
    }

    #[test]
    fn federation_bookkeeping_is_bounded() {
        // One full weight-exchange round for 4 contributors, amortized
        // over the 10-epoch round period, must cost at most 1 ms per
        // epoch in the optimized build (ISSUE 10 acceptance bound);
        // debug builds use the proportionally relaxed budget.
        let ms = federation_bookkeeping_ms(50).unwrap();
        assert!(
            ms <= fed_budget_ms(),
            "federation bookkeeping {ms:.4} ms/epoch exceeds the {} ms budget",
            fed_budget_ms()
        );
    }

    #[test]
    fn checkpointing_overhead_is_negligible() {
        // Arming periodic crash-safe checkpointing (serialize + CRC +
        // atomic write + prune, every 5 epochs) must cost less than 1% of
        // the 1 s decision interval per epoch (< 10 ms amortised).
        let off = ckpt_loop_ms_per_epoch(false, 40, 7).unwrap();
        let on = ckpt_loop_ms_per_epoch(true, 40, 7).unwrap();
        let delta = on - off;
        assert!(
            delta < 10.0,
            "checkpointing overhead {delta:.3} ms/epoch exceeds 1% of the epoch"
        );
    }
}
