//! The `fleet_n8` loop: `Cluster::step` on eight heterogeneous nodes with
//! the federation plane on and seeded node crashes.

use crate::trace::SpanLog;
use crate::window::Window;
use crate::workloads::{FLEET_CRASH, FLEET_NODES, FLEET_REPLICATION, FLEET_WARMUP_EPOCHS};
use crate::BenchError;
use twig_cluster::{
    AgentTuning, Cluster, ClusterConfig, ClusterFaultConfig, ClusterFaultPlan, CoordinatorConfig,
    FedFaultPlan, FederateConfig, NodePlatform,
};
use twig_sim::{catalog, DvfsLadder};
use twig_telemetry::Telemetry;

/// `big` default 18-core sockets followed by `small` 12-core sockets with
/// a 7-step ladder.
pub fn topology(big: usize, small: usize) -> Result<Vec<NodePlatform>, BenchError> {
    let short = DvfsLadder::new(1200, 100, 7)?;
    Ok((0..big + small)
        .map(|i| {
            if i < big {
                NodePlatform {
                    cores: 18,
                    dvfs: DvfsLadder::default(),
                }
            } else {
                NodePlatform {
                    cores: 12,
                    dvfs: short.clone(),
                }
            }
        })
        .collect())
}

/// The fleet configuration over `nodes`: masstree + xapian + img-dnn at
/// replication `replication`, demand 0.9 × one replica's capacity × 2.
pub fn config(nodes: Vec<NodePlatform>, replication: usize, seed: u64) -> ClusterConfig {
    let services = vec![catalog::masstree(), catalog::xapian(), catalog::img_dnn()];
    let demand_rps = services
        .iter()
        .map(|s| (s.max_load_rps * 0.9 * 2.0) as u64)
        .collect();
    let coordinator = CoordinatorConfig::default();
    ClusterConfig {
        nodes,
        services,
        demand_rps,
        replication,
        suspect_after_misses: coordinator.suspect_after_misses,
        coordinator,
        tuning: AgentTuning::default(),
        seed,
    }
}

/// A booted fleet with federation on and the seeded crash plan armed.
///
/// # Errors
///
/// Propagates cluster construction errors.
pub fn build(
    nodes: Vec<NodePlatform>,
    replication: usize,
    seed: u64,
    telemetry: Telemetry,
) -> Result<Cluster, BenchError> {
    let (crash_rate, restart_after_epochs) = FLEET_CRASH;
    let faults = ClusterFaultPlan::new(
        ClusterFaultConfig {
            crash_rate,
            restart_after_epochs,
            ..ClusterFaultConfig::default()
        },
        seed ^ 0x00C1_05E5,
    )?;
    let mut cluster = Cluster::new(config(nodes, replication, seed), faults, telemetry)?;
    cluster.enable_federation(FederateConfig::default(), FedFaultPlan::disabled())?;
    Ok(cluster)
}

/// Builds the eight-node fleet and steps it through its warm-up.
///
/// # Errors
///
/// Propagates construction and warm-up errors.
pub fn setup(seed: u64, telemetry: Telemetry) -> Result<Cluster, BenchError> {
    let (big, small) = FLEET_NODES;
    let mut cluster = build(topology(big, small)?, FLEET_REPLICATION, seed, telemetry)?;
    for _ in 0..FLEET_WARMUP_EPOCHS {
        cluster.step()?;
    }
    Ok(cluster)
}

/// Steps the fleet until `seconds` have passed. A `cluster.step` span is
/// flagged when the federation plane did anything during it.
pub fn run_window(
    cluster: &mut Cluster,
    seconds: f64,
    rss_probe_at: u64,
    log: &mut SpanLog,
) -> Window {
    let mut window = Window::open(log, (seconds * 100_000.0) as usize + 16, rss_probe_at);
    let deadline = window.start_ns + (seconds * 1e9) as u64;
    let mut epoch = 0u64;
    loop {
        let fed_before = *cluster.fed_stats();
        let whole = log.open("epoch", epoch);
        let span = log.open("cluster.step", epoch);
        let stepped = cluster.step();
        log.close(span);
        if *cluster.fed_stats() != fed_before {
            log.flag(span);
        }
        match &stepped {
            Ok(report) => {
                window.requests += report.routed_rps;
                for svc in &report.services {
                    if svc.routed_rps > 0 {
                        window.qos_total += 1;
                        window.qos_met += u64::from(svc.qos_met);
                    }
                }
                if !report.conserved {
                    window.fail(format!("epoch {epoch}: balancer books did not balance"));
                }
                if report.live_nodes == 0 {
                    window.fail(format!("epoch {epoch}: the whole fleet is down"));
                }
            }
            Err(e) => window.fail(format!("epoch {epoch}: {e}")),
        }
        log.close(whole);
        let now = window.close_operation(log);
        epoch += 1;
        if stepped.is_err() || now >= deadline {
            break;
        }
    }
    window.finish()
}
