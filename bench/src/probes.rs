//! Per-layer probes: timed direct calls into a layer's public functions,
//! from outside, at the shapes the workload runs.
//!
//! A probe warms up, then times calls until it has 200 samples (or, for a
//! slow function, at least `min` samples and its time budget is spent).
//! Functions faster than the clock can resolve are timed in batches. Every
//! probe reports a median, so a stray context switch does not move it.

use crate::fleet_loop;
use crate::metrics::MetricSet;
use crate::stats::{median, timing};
use crate::workloads::Workload;
use crate::BenchError;
use std::time::Instant;
use twig_cluster::{
    AgentTuning, ClusterNode, Coordinator, CoordinatorConfig, LoadBalancer, NodePlatform,
};
use twig_core::{
    recover, CheckpointStore, ClusterView, Mapper, NodeId, NodeView, SystemMonitor, Twig,
    TwigBuilder,
};
use twig_nn::{count_alloc, Dense, Mlp, Relu, Tensor};
use twig_platform::{OsFaultConfig, OsFaultPlan, Platform, SimWorld};
use twig_rl::federate::merge_round;
use twig_rl::{
    decode_checkpoint, encode_checkpoint, ByzantineScreen, Contribution, MaBdq, MaBdqConfig,
    MultiTransition, ScreenConfig,
};
use twig_sim::pmc::{synthesize, Activity};
use twig_sim::{catalog, DvfsLadder, Frequency, ServerConfig, ServiceQueue, ServiceSpec};
use twig_stats::rng::Xoshiro256;
use twig_telemetry::Telemetry;

/// Samples a probe stops at.
const FULL_SAMPLES: usize = 200;
/// Shortest interval a single sample should cover, nanoseconds; faster
/// functions are batched up to it.
const MIN_SAMPLE_NS: f64 = 20_000.0;

/// One service-epoch of mid-load activity, for the PMC and monitor probes.
const ACTIVITY: Activity = Activity {
    weighted_busy_core_s: 4.0,
    busy_core_s: 4.0,
    cpu_work_ms: 2000.0,
    mem_work_ms: 800.0,
    cache_pressure: 0.2,
    clock_ghz: 2.0,
};

/// The shapes a workload runs its learner at.
#[derive(Debug, Clone)]
pub struct Shapes {
    /// Services one learner manages (its K).
    pub agents: usize,
    /// Network and optimiser template.
    pub template: MaBdqConfig,
    /// The services.
    pub specs: Vec<ServiceSpec>,
    /// Socket size.
    pub cores: usize,
}

impl Shapes {
    /// The learner shapes of `workload`. The corpus is probed at the
    /// two-service shape most of its scenarios use; the fleet at its
    /// one-agent-per-replica small nets.
    pub fn of(workload: Workload) -> Shapes {
        let cores = ServerConfig::default().cores;
        match workload {
            Workload::FleetN8 => Shapes {
                agents: 1,
                template: AgentTuning::default().template,
                specs: vec![catalog::masstree()],
                cores,
            },
            other => {
                let specs = crate::server_loop::specs_for(other);
                Shapes {
                    agents: specs.len(),
                    template: MaBdqConfig::default(),
                    specs,
                    cores,
                }
            }
        }
    }
}

impl Shapes {
    /// An even split of the socket, as a per-service core request (at least
    /// one core when the socket is oversubscribed).
    fn cores_per_service(&self) -> usize {
        (self.cores / self.agents).clamp(1, 7)
    }
}

/// How hard the probes work: a smoke run takes a tenth of the samples.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    samples: usize,
    budget_s: f64,
    fleet_epochs: u64,
    storm_epochs: u64,
    steady_epochs: u64,
}

impl Effort {
    /// Full effort, or a tenth of it for a smoke run.
    pub fn new(smoke: bool) -> Effort {
        if smoke {
            Effort {
                samples: 20,
                budget_s: 0.05,
                fleet_epochs: 30,
                storm_epochs: 40,
                steady_epochs: 10,
            }
        } else {
            Effort {
                samples: FULL_SAMPLES,
                budget_s: 0.5,
                fleet_epochs: 300,
                storm_epochs: 200,
                steady_epochs: 100,
            }
        }
    }
}

/// Times `f`: nanoseconds per call, one entry per sample. Stops at the
/// effort's sample count, or once it has `min` samples and the budget is
/// spent.
fn sample_ns(effort: Effort, min: usize, mut f: impl FnMut()) -> Vec<f64> {
    let first = Instant::now();
    f();
    let once_ns = first.elapsed().as_nanos() as f64;
    let batch = (MIN_SAMPLE_NS / once_ns.max(1.0)).clamp(1.0, 10_000.0) as usize;
    let min = min.min(effort.samples);

    let warm = Instant::now();
    for _ in 0..20 {
        for _ in 0..batch {
            f();
        }
        if warm.elapsed().as_secs_f64() > effort.budget_s / 2.0 {
            break;
        }
    }

    let mut samples = Vec::with_capacity(effort.samples);
    let begin = Instant::now();
    while samples.len() < effort.samples {
        if samples.len() >= min && begin.elapsed().as_secs_f64() > effort.budget_s {
            break;
        }
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(start.elapsed().as_nanos() as f64 / batch as f64);
    }
    samples
}

/// Median microseconds per call of `f`.
fn median_us(effort: Effort, f: impl FnMut()) -> f64 {
    median(&sample_ns(effort, 30, f)) / 1e3
}

fn neutral_states(agents: usize, state_dim: usize) -> Vec<Vec<f32>> {
    vec![vec![0.5f32; state_dim]; agents]
}

/// An agent at the workload's shapes whose buffer holds one full batch.
fn ready_agent(shapes: &Shapes) -> Result<MaBdq, BenchError> {
    let mut agent = MaBdq::new(MaBdqConfig {
        agents: shapes.agents,
        ..shapes.template.clone()
    })?;
    let states = neutral_states(shapes.agents, agent.config().state_dim);
    for _ in 0..agent.config().batch_size {
        agent.observe(MultiTransition {
            states: states.clone(),
            actions: vec![vec![3, 2]; shapes.agents],
            rewards: vec![1.0; shapes.agents],
            next_states: states.clone(),
        })?;
    }
    Ok(agent)
}

/// A manager at the workload's shapes, for the checkpoint-store probes.
fn probe_twig(shapes: &Shapes) -> Result<Twig, BenchError> {
    Ok(TwigBuilder::new()
        .services(shapes.specs.clone())
        .agent(shapes.template.clone())
        .seed(1)
        .build()?)
}

fn sim_probes(effort: Effort, m: &mut MetricSet) {
    let spec = catalog::masstree();
    let mut rng = Xoshiro256::seed_from_u64(7);
    let mut queue = ServiceQueue::new();
    let mut t = 0.0;
    // 2 000 requests per epoch at half utilisation: the middle of what the
    // loop workloads simulate per service.
    m.set(
        "sim.queue_run_epoch_us",
        median_us(effort, || {
            queue.run_epoch(t, t + 1.0, 2_000.0, 0.25, 0.5, &mut rng);
            t += 1.0;
        }),
    );
    m.set(
        "sim.pmc_synthesize_ns",
        median(&sample_ns(effort, 30, || {
            std::hint::black_box(synthesize(&spec, &ACTIVITY, &mut rng));
        })),
    );
}

fn core_probes(shapes: &Shapes, effort: Effort, m: &mut MetricSet) -> Result<(), BenchError> {
    let k = shapes.agents;
    let mut monitor = SystemMonitor::new(k, 5, shapes.cores)?;
    let mut rng = Xoshiro256::seed_from_u64(11);
    let samples: Vec<_> = shapes
        .specs
        .iter()
        .map(|spec| synthesize(spec, &ACTIVITY, &mut rng))
        .collect();
    m.set(
        "core.monitor_update_us",
        median_us(effort, || {
            for (svc, sample) in samples.iter().enumerate() {
                monitor.update(svc, sample).expect("monitor update");
            }
            std::hint::black_box(monitor.states().expect("monitor states"));
        }),
    );

    let mapper = Mapper::new(shapes.cores)?;
    let per_service = shapes.cores_per_service();
    let requests: Vec<(usize, Frequency)> = (0..k)
        .map(|i| {
            (
                per_service,
                Frequency::from_mhz(1600 + 300 * (i as u32 % 2)),
            )
        })
        .collect();
    m.set(
        "core.mapper_assign_us",
        median_us(effort, || {
            std::hint::black_box(mapper.assign(&requests).expect("mapper assign"));
        }),
    );

    let mut twig = probe_twig(shapes)?;
    let payload = twig.checkpoint_bytes();
    let dir = std::env::temp_dir().join(format!("probe-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::create(&dir, 3)?;
    m.set(
        "core.ckpt_store_write_us",
        median_us(effort, || {
            store.write(&payload).expect("checkpoint write");
        }),
    );
    let silent = Telemetry::disabled();
    m.set(
        "core.ckpt_store_recover_us",
        median_us(effort, || {
            let report = recover(&store, &mut twig, &silent);
            assert!(report.recovered(), "a fresh generation must restore");
        }),
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn rl_probes(shapes: &Shapes, effort: Effort, m: &mut MetricSet) -> Result<(), BenchError> {
    let mut agent = ready_agent(shapes)?;
    let states = neutral_states(shapes.agents, agent.config().state_dim);
    let mut actions: Vec<Vec<usize>> = Vec::new();

    // The tail needs 100 samples (p90 by the ten-beyond rule) even when a
    // step is slow, so this probe may outrun the common budget.
    let steps = sample_ns(effort, 100, || {
        agent
            .train_step()
            .expect("train step")
            .expect("the batch is full");
    });
    let steps_us: Vec<f64> = steps.iter().map(|ns| ns / 1e3).collect();
    let step = timing(&steps_us);
    m.set("rl.train_step_p50_us", step.p50);
    m.set("rl.train_step_tail_us", step.tail);

    m.set(
        "rl.select_fused_p50_us",
        median_us(effort, || {
            agent
                .select_actions_into(&states, 0.1, &mut actions)
                .expect("fused select");
        }),
    );
    agent.refresh_quantized()?;
    m.set(
        "rl.select_quantized_p50_us",
        median_us(effort, || {
            agent
                .select_actions_quantized_into(&states, &mut actions)
                .expect("quantized select");
        }),
    );

    // Steady-state allocation discipline of decide + learn. Only a binary
    // that installs the counting allocator can see it.
    if count_alloc::counter_armed() {
        let before = count_alloc::allocation_count();
        for _ in 0..effort.steady_epochs {
            agent.train_step()?.ok_or("the batch is full")?;
            agent.select_actions_into(&states, 0.1, &mut actions)?;
        }
        m.set(
            "rl.steady_allocs",
            count_alloc::allocations_since(before) as f64,
        );
    }

    let reference = agent.save_checkpoint();
    let bytes = encode_checkpoint(&reference);
    m.set("rl.ckpt_bytes", bytes.len() as f64);
    m.set(
        "rl.ckpt_encode_us",
        median_us(effort, || {
            std::hint::black_box(encode_checkpoint(&reference));
        }),
    );
    m.set(
        "rl.ckpt_decode_us",
        median_us(effort, || {
            std::hint::black_box(decode_checkpoint(&bytes).expect("decode"));
        }),
    );

    // One federation round's arithmetic for four contributors.
    let weights = [46_800u64, 46_800, 46_800, 21_600];
    let contributions: Vec<Contribution> = weights
        .iter()
        .enumerate()
        .map(|(contributor, &weight)| Contribution {
            contributor,
            weight,
            checkpoint: reference.clone(),
        })
        .collect();
    let params: Vec<&[f32]> = contributions
        .iter()
        .map(|c| c.checkpoint.params.as_slice())
        .collect();
    let mut screen = ByzantineScreen::new(ScreenConfig::default())?;
    m.set(
        "rl.fed_screen_us",
        median_us(effort, || {
            for verdict in screen.screen(&params) {
                verdict.expect("identical payloads pass the screen");
            }
        }),
    );
    m.set(
        "rl.fed_merge_us",
        median_us(effort, || {
            std::hint::black_box(merge_round(&reference, &contributions).expect("merge"));
        }),
    );
    Ok(())
}

fn filled(rows: usize, cols: usize, rng: &mut Xoshiro256) -> Tensor {
    use twig_stats::rng::Rng;
    let mut t = Tensor::zeros(rows, cols);
    for v in t.as_mut_slice() {
        *v = rng.range_f32(-1.0, 1.0);
    }
    t
}

fn nn_probes(shapes: &Shapes, effort: Effort, m: &mut MetricSet) -> Result<(), BenchError> {
    let mut rng = Xoshiro256::seed_from_u64(3);
    // The default learner's trunk: 11 → 96 → 64, batch 64.
    let mut trunk = Mlp::new()
        .push(Dense::new(11, 96, &mut rng))
        .push(Relu::new())
        .push(Dense::new(96, 64, &mut rng))
        .push(Relu::new());
    let input = filled(64, 11, &mut rng);
    let grad = filled(64, 64, &mut rng);
    m.set(
        "nn.forward_b64_us",
        median_us(effort, || {
            std::hint::black_box(trunk.forward_scratch(&input, true));
        }),
    );
    m.set(
        "nn.backward_b64_us",
        median_us(effort, || {
            trunk.forward_scratch(&input, true);
            std::hint::black_box(trunk.backward_scratch(&grad));
        }) - m.get("nn.forward_b64_us").unwrap_or(0.0),
    );

    let (a, b) = (filled(64, 96, &mut rng), filled(96, 64, &mut rng));
    let mut out = Tensor::zeros(64, 64);
    let big_ns = median(&sample_ns(effort, 30, || {
        a.matmul_into(&b, &mut out).expect("gemm shapes");
    }));
    m.set(
        "nn.gemm_64x96x64_gflops",
        (2 * 64 * 96 * 64) as f64 / big_ns.max(1.0),
    );
    // The shape the fleet's 16/12 nets run at batch 8.
    let (a, b) = (filled(8, 16, &mut rng), filled(16, 12, &mut rng));
    let mut out = Tensor::zeros(8, 12);
    m.set(
        "nn.gemm_8x16x12_ns",
        median(&sample_ns(effort, 30, || {
            a.matmul_into(&b, &mut out).expect("gemm shapes");
        })),
    );

    let mut quantized = trunk.quantize()?;
    let rows = filled(shapes.agents, 11, &mut rng);
    let mut q_out = Tensor::zeros(shapes.agents, 64);
    m.set(
        "nn.quant_forward_us",
        median_us(effort, || {
            quantized.forward_into(&rows, &mut q_out);
        }),
    );
    Ok(())
}

fn platform_probes(
    shapes: &Shapes,
    effort: Effort,
    seed: u64,
    m: &mut MetricSet,
) -> Result<(), BenchError> {
    let mapper = Mapper::new(shapes.cores)?;
    let k = shapes.agents;
    let per_service = shapes.cores_per_service();
    // Two plans that differ in every cpuset and setpoint, so each actuate
    // really rewrites the tree.
    let plans: Vec<_> = [
        (per_service, 1600),
        ((per_service + 1).min(shapes.cores), 1900),
    ]
    .into_iter()
    .map(|(n, mhz)| mapper.assign(&vec![(n, Frequency::from_mhz(mhz)); k]))
    .collect::<Result<_, _>>()?;

    let mut world = SimWorld::new(shapes.specs.clone(), seed)?;
    for i in 0..k {
        world.server_mut().set_load_fraction(i, 0.4 / k as f64)?;
    }
    let mut platform = world.platform()?;
    let epochs = effort.samples.max(30);
    let (mut actuate_us, mut observe_us) = (Vec::new(), Vec::new());
    for epoch in 0..epochs + 20 {
        let start = Instant::now();
        platform.actuate(&plans[epoch % 2])?;
        let actuated = start.elapsed();
        world.tick()?;
        let start = Instant::now();
        platform.observe_epoch()?;
        let observed = start.elapsed();
        if epoch >= 20 {
            actuate_us.push(actuated.as_nanos() as f64 / 1e3);
            observe_us.push(observed.as_nanos() as f64 / 1e3);
        }
    }
    m.set("platform.linux_actuate_us", median(&actuate_us));
    m.set("platform.linux_observe_us", median(&observe_us));

    // A fixed reject storm: the retry and divergence counts repeat exactly
    // at a given seed.
    world.fs().set_fault_plan(OsFaultPlan::new(
        OsFaultConfig {
            cpuset_eperm_rate: 0.35,
            cpuset_ebusy_rate: 0.2,
            cpufreq_eperm_rate: 0.25,
            ..OsFaultConfig::default()
        },
        seed ^ 0x05FA_17BD,
    )?);
    let before = *platform.stats();
    for epoch in 0..effort.storm_epochs as usize {
        platform.actuate(&plans[epoch % 2])?;
        world.tick()?;
        platform.observe_epoch()?;
    }
    let after = *platform.stats();
    m.set(
        "platform.linux_retries",
        (after.write_retries - before.write_retries) as f64,
    );
    m.set(
        "platform.linux_divergences",
        (after.divergences - before.divergences) as f64,
    );
    Ok(())
}

/// Median `Cluster::step` microseconds of a `big + small`-node fleet.
fn fleet_step_us(
    big: usize,
    small: usize,
    replication: usize,
    epochs: u64,
    seed: u64,
) -> Result<f64, BenchError> {
    let mut cluster = fleet_loop::build(
        fleet_loop::topology(big, small)?,
        replication,
        seed,
        Telemetry::disabled(),
    )?;
    let mut us = Vec::with_capacity(epochs as usize);
    for epoch in 0..epochs + 10 {
        let start = Instant::now();
        cluster.step()?;
        if epoch >= 10 {
            us.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    Ok(median(&us))
}

fn cluster_probes(effort: Effort, seed: u64, m: &mut MetricSet) -> Result<(), BenchError> {
    m.set(
        "cluster.step_us_n4",
        fleet_step_us(3, 1, 2, effort.fleet_epochs, seed)?,
    );
    m.set(
        "cluster.step_us_n16",
        fleet_step_us(12, 4, 3, effort.fleet_epochs, seed)?,
    );

    // The control plane alone, at the workload's eight nodes.
    let platforms = fleet_loop::topology(6, 2)?;
    let (nodes, services, replication) = (platforms.len(), 3usize, 3usize);
    let weights: Vec<u64> = platforms.iter().map(NodePlatform::weight).collect();
    let mut balancer = LoadBalancer::new(services, weights, 2)?;
    let mut coordinator =
        Coordinator::new(services, nodes, replication, CoordinatorConfig::default())?;
    for s in 0..services {
        for r in 0..replication {
            coordinator.admit_replica(s, NodeId((s + r) % nodes))?;
        }
    }
    balancer.sync_table(coordinator.placement());
    let heartbeats = vec![true; nodes];
    let demand = vec![2160u64, 900, 990];
    let capacity: Vec<Vec<u64>> = vec![vec![2400; services]; nodes];
    let reachable: Vec<Vec<bool>> = (0..nodes)
        .map(|n| {
            (0..services)
                .map(|s| coordinator.placement().hosts(s, NodeId(n)))
                .collect()
        })
        .collect();
    m.set(
        "cluster.balancer_route_us",
        median_us(effort, || {
            balancer.observe_heartbeats(&heartbeats);
            let routed = balancer
                .route(&demand, &capacity, &reachable)
                .expect("route");
            assert!(routed.conserved, "steady-state routing must conserve");
        }),
    );
    m.set(
        "cluster.coordinator_tick_us",
        median_us(effort, || {
            coordinator.record_heartbeats(&heartbeats);
            let view = ClusterView {
                nodes: platforms
                    .iter()
                    .enumerate()
                    .map(|(i, p)| NodeView {
                        id: NodeId(i),
                        alive: true,
                        cores: p.cores,
                        max_freq_mhz: p.dvfs.max().mhz(),
                        hosted_replicas: (0..services)
                            .filter(|&s| coordinator.placement().hosts(s, NodeId(i)))
                            .count(),
                    })
                    .collect(),
            };
            std::hint::black_box(coordinator.plan_repairs(&view));
            std::hint::black_box(coordinator.advance_transfers(|| false));
        }),
    );

    // One node serving its share of the fleet's demand.
    let specs = vec![catalog::masstree(), catalog::xapian(), catalog::img_dnn()];
    let routed: Vec<u64> = specs
        .iter()
        .map(|s| (s.max_load_rps * 0.9 * 2.0 / replication as f64) as u64)
        .collect();
    let mut node = ClusterNode::new(
        NodeId(0),
        NodePlatform {
            cores: 18,
            dvfs: DvfsLadder::default(),
        },
        specs,
        AgentTuning::default(),
        seed,
    )?;
    for s in 0..services {
        node.install_replica(s, None)?;
    }
    let mut epoch = 0u64;
    m.set(
        "cluster.node_serve_epoch_us",
        median_us(effort, || {
            epoch += 1;
            node.serve_epoch(&routed, epoch).expect("serve epoch");
        }),
    );
    Ok(())
}

/// Runs every probe that applies to `workload` and records its metrics.
///
/// # Errors
///
/// Propagates construction errors of the probed layers.
pub fn run(
    workload: Workload,
    seed: u64,
    smoke: bool,
    m: &mut MetricSet,
) -> Result<(), BenchError> {
    let effort = Effort::new(smoke);
    let shapes = Shapes::of(workload);
    sim_probes(effort, m);
    core_probes(&shapes, effort, m)?;
    rl_probes(&shapes, effort, m)?;
    nn_probes(&shapes, effort, m)?;
    platform_probes(&shapes, effort, seed, m)?;
    if workload == Workload::FleetN8 {
        cluster_probes(effort, seed, m)?;
    }
    Ok(())
}
