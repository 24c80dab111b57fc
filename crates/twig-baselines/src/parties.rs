use crate::{config_error, BaselineError};
use twig_core::{Mapper, TaskManager};
use twig_sim::{Assignment, DvfsLadder, EpochReport, ServiceSpec};
use twig_stats::rng::{Rng, Xoshiro256};

/// Controller period in epochs (paper: 2 s).
const PERIOD: u64 = 2;
/// Latency fraction of target at which a service is upsized
/// (paper: 95 %).
const UPSIZE_THRESHOLD: f64 = 0.95;
/// Latency fraction of target below which a service is a reclaim
/// candidate.
const SLACK_THRESHOLD: f64 = 0.7;

/// Which knob PARTIES adjusts (CAT and explicit memory partitioning are
/// omitted, as in the paper's testbed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resource {
    Cores,
    Dvfs,
}

#[derive(Debug, Clone, Copy)]
struct Adjustment {
    service: usize,
    resource: Resource,
    delta: i32,
    tardiness_before: f64,
}

/// PARTIES (ASPLOS 2019): the colocated-services feedback controller
/// Twig-C is compared against.
///
/// Every 2 s it adjusts **one resource at a time** (here core count or
/// DVFS): if any service's tail latency is at ≥ 95 % of its target, the
/// most-pressured service gets one unit more of a (randomly chosen)
/// resource; otherwise the service with the most slack gives one unit back.
/// If an adjustment is followed by a QoS violation of the adjusted service,
/// it is reverted and the other resource is tried next time — the
/// "ping-pong" behaviour Section V-B2 observes.
///
/// # Examples
///
/// ```
/// use twig_baselines::Parties;
/// use twig_core::TaskManager;
/// use twig_sim::{catalog, DvfsLadder};
///
/// let mut p = Parties::new(
///     vec![catalog::masstree(), catalog::moses()],
///     18,
///     DvfsLadder::default(),
///     0,
/// ).unwrap();
/// let a = p.decide().unwrap();
/// assert_eq!(a.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Parties {
    specs: Vec<ServiceSpec>,
    dvfs: DvfsLadder,
    mapper: Mapper,
    total_cores: usize,
    cores: Vec<usize>,
    dvfs_idx: Vec<usize>,
    last_adjustment: Option<Adjustment>,
    avoid_resource: Vec<Option<Resource>>,
    rng: Xoshiro256,
    time: u64,
    migrations: u64,
}

impl Parties {
    /// Creates a PARTIES manager for the given colocated services. Initial
    /// allocation splits the socket evenly at the highest DVFS state;
    /// `seed` drives the controller's random choice of resource (it
    /// "begins by randomly selecting one of the resources").
    ///
    /// # Errors
    ///
    /// Returns an error for an empty service list or a socket smaller than
    /// the service count.
    pub fn new(
        specs: Vec<ServiceSpec>,
        cores: usize,
        dvfs: DvfsLadder,
        seed: u64,
    ) -> Result<Self, BaselineError> {
        if specs.is_empty() {
            return Err(config_error("parties needs at least one service"));
        }
        if cores < specs.len() {
            return Err(config_error(format!(
                "{} cores cannot host {} services",
                cores,
                specs.len()
            )));
        }
        for s in &specs {
            s.validate()?;
        }
        let k = specs.len();
        Ok(Parties {
            dvfs: dvfs.clone(),
            mapper: Mapper::new(cores)?,
            total_cores: cores,
            cores: vec![cores / k; k],
            dvfs_idx: vec![dvfs.len() - 1; k],
            last_adjustment: None,
            avoid_resource: vec![None; k],
            rng: Xoshiro256::seed_from_u64(seed),
            time: 0,
            migrations: 0,
            specs,
        })
    }

    /// Core-allocation changes so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Current per-service core counts.
    pub fn core_allocation(&self) -> &[usize] {
        &self.cores
    }

    fn pick_resource(&mut self, service: usize) -> Resource {
        let preferred = if self.rng.next_bool(0.5) {
            Resource::Cores
        } else {
            Resource::Dvfs
        };
        match self.avoid_resource[service] {
            Some(avoid) if avoid == preferred => match preferred {
                Resource::Cores => Resource::Dvfs,
                Resource::Dvfs => Resource::Cores,
            },
            _ => preferred,
        }
    }

    fn apply(&mut self, service: usize, resource: Resource, delta: i32) -> bool {
        match resource {
            Resource::Cores => {
                let new = (self.cores[service] as i64 + delta as i64)
                    .clamp(1, self.total_cores as i64) as usize;
                if new == self.cores[service] {
                    return false;
                }
                self.cores[service] = new;
                self.migrations += 1;
                true
            }
            Resource::Dvfs => {
                let new = (self.dvfs_idx[service] as i64 + delta as i64)
                    .clamp(0, self.dvfs.len() as i64 - 1) as usize;
                if new == self.dvfs_idx[service] {
                    return false;
                }
                self.dvfs_idx[service] = new;
                true
            }
        }
    }
}

impl TaskManager for Parties {
    fn name(&self) -> &str {
        "parties"
    }

    fn decide(&mut self) -> Result<Vec<Assignment>, BaselineError> {
        let requests: Vec<(usize, twig_sim::Frequency)> = self
            .cores
            .iter()
            .zip(&self.dvfs_idx)
            .map(|(&n, &d)| Ok((n, self.dvfs.frequency_at(d)?)))
            .collect::<Result<_, twig_sim::SimError>>()?;
        Ok(self.mapper.assign(&requests)?)
    }

    fn observe(&mut self, report: &EpochReport) -> Result<(), BaselineError> {
        if report.services.len() != self.specs.len() {
            return Err(config_error(format!(
                "report has {} services, parties manages {}",
                report.services.len(),
                self.specs.len()
            )));
        }
        self.time += 1;
        if !self.time.is_multiple_of(PERIOD) {
            return Ok(());
        }
        let tardiness: Vec<f64> = report
            .services
            .iter()
            .zip(&self.specs)
            .map(|(svc, spec)| svc.p99_ms / spec.qos_ms)
            .collect();

        // Revert an adjustment that pushed its service into violation.
        if let Some(adj) = self.last_adjustment.take() {
            if tardiness[adj.service] > 1.0 && adj.tardiness_before <= 1.0 && adj.delta < 0 {
                self.apply(adj.service, adj.resource, -adj.delta);
                self.avoid_resource[adj.service] = Some(adj.resource);
                return Ok(());
            }
        }

        // Upsize the most-pressed service whose allocation can still grow;
        // a saturated service must not deadlock the controller while a
        // colocated one is also in need.
        let mut order: Vec<usize> = (0..tardiness.len()).collect();
        order.sort_by(|&a, &b| tardiness[b].total_cmp(&tardiness[a]));
        let mut upsized = false;
        for &pressed in &order {
            if tardiness[pressed] < UPSIZE_THRESHOLD {
                break;
            }
            let resource = self.pick_resource(pressed);
            let applied = self.apply(pressed, resource, 1) || {
                // The preferred knob is saturated; try the other one.
                let other = match resource {
                    Resource::Cores => Resource::Dvfs,
                    Resource::Dvfs => Resource::Cores,
                };
                self.apply(pressed, other, 1)
            };
            if applied {
                self.last_adjustment = Some(Adjustment {
                    service: pressed,
                    resource,
                    delta: 1,
                    tardiness_before: tardiness[pressed],
                });
                upsized = true;
                break;
            }
        }
        let worst = tardiness[order[0]];
        if !upsized && worst < UPSIZE_THRESHOLD {
            let Some((slackest, &best)) = tardiness
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.total_cmp(b))
            else {
                return Ok(());
            };
            if best < SLACK_THRESHOLD {
                let resource = self.pick_resource(slackest);
                if self.apply(slackest, resource, -1) {
                    self.last_adjustment = Some(Adjustment {
                        service: slackest,
                        resource,
                        delta: -1,
                        tardiness_before: best,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_sim::{catalog, Server, ServerConfig};

    fn parties(specs: Vec<ServiceSpec>) -> Parties {
        Parties::new(specs, 18, DvfsLadder::default(), 0).unwrap()
    }

    fn drive(p: &mut Parties, server: &mut Server, epochs: usize) {
        for _ in 0..epochs {
            let a = p.decide().unwrap();
            let r = server.step(&a).unwrap();
            p.observe(&r).unwrap();
        }
    }

    #[test]
    fn constructor_validation() {
        assert!(Parties::new(vec![], 18, DvfsLadder::default(), 0).is_err());
        assert!(Parties::new(
            vec![catalog::moses(), catalog::masstree()],
            1,
            DvfsLadder::default(),
            0
        )
        .is_err());
    }

    #[test]
    fn initial_split_is_even() {
        let p = parties(vec![catalog::masstree(), catalog::moses()]);
        assert_eq!(p.core_allocation(), &[9, 9]);
    }

    #[test]
    fn reclaims_from_idle_services() {
        let specs = vec![catalog::masstree(), catalog::moses()];
        let mut server = Server::new(ServerConfig::default(), specs.clone(), 8).unwrap();
        server.set_load_fraction(0, 0.1).unwrap();
        server.set_load_fraction(1, 0.1).unwrap();
        let mut p = parties(specs);
        drive(&mut p, &mut server, 60);
        let total: usize = p.core_allocation().iter().sum();
        assert!(total < 18, "idle services should shed cores, total {total}");
    }

    #[test]
    fn upsizes_pressured_service() {
        let specs = vec![catalog::masstree(), catalog::moses()];
        let mut server = Server::new(ServerConfig::default(), specs.clone(), 9).unwrap();
        server.set_load_fraction(0, 0.9).unwrap();
        server.set_load_fraction(1, 0.2).unwrap();
        let mut p = parties(specs);
        drive(&mut p, &mut server, 80);
        // Masstree under pressure should end up with at least its fair share
        // while idle moses shrinks.
        assert!(
            p.core_allocation()[0] > p.core_allocation()[1],
            "allocation {:?}",
            p.core_allocation()
        );
    }

    #[test]
    fn observe_validates_report_shape() {
        let specs = vec![catalog::masstree(), catalog::moses()];
        let mut p = parties(specs);
        let mut server =
            Server::new(ServerConfig::default(), vec![catalog::masstree()], 10).unwrap();
        let r = server
            .step(&[Assignment::first_n(4, DvfsLadder::default().max())])
            .unwrap();
        assert!(p.observe(&r).is_err());
    }

    #[test]
    fn adjusts_only_on_its_period() {
        let specs = vec![catalog::masstree(), catalog::moses()];
        let mut server = Server::new(ServerConfig::default(), specs.clone(), 11).unwrap();
        server.set_load_fraction(0, 0.1).unwrap();
        server.set_load_fraction(1, 0.1).unwrap();
        let mut p = parties(specs);
        for epoch in 1..=40u64 {
            let before = p.migrations();
            drive(&mut p, &mut server, 1);
            if epoch.is_multiple_of(PERIOD) {
                // One controller tick fired (it may have chosen DVFS).
                assert!(p.migrations() <= before + 1, "epoch {epoch}");
            } else {
                assert_eq!(p.migrations(), before, "adjusted off-period at {epoch}");
            }
        }
        assert!(p.migrations() > 0, "idle services never shed a core");
    }
}
