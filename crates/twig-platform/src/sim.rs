//! The simulator backend: [`SimPlatform`] adapts [`twig_sim::Server`] to
//! the [`Platform`] trait, behavior-preserving to the byte.

use crate::{Platform, PlatformError};
use twig_sim::{Assignment, DvfsLadder, EpochReport, Server, ServiceSpec};
use twig_telemetry::Telemetry;

/// [`twig_sim::Server`] behind the [`Platform`] trait.
///
/// [`Platform::step`] is exactly [`Server::step`] — same calls, same
/// order, same RNG draws — so every existing suite and report stays
/// byte-identical when driven through the trait. The split form stashes
/// the assignments at [`Platform::actuate`] and runs the simulator step
/// at [`Platform::observe_epoch`], since the simulator produces the whole
/// epoch atomically.
///
/// Server-only controls (load generators, fault plans, service churn)
/// stay reachable through [`SimPlatform::server_mut`].
///
/// # Examples
///
/// ```
/// use twig_platform::{Platform, SimPlatform};
/// use twig_sim::{catalog, Assignment, Server, ServerConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let server = Server::new(ServerConfig::default(), vec![catalog::masstree()], 42)?;
/// let mut platform = SimPlatform::new(server);
/// let all = Assignment::first_n(platform.cores(), platform.dvfs().max());
/// let report = platform.step(&[all])?;
/// assert_eq!(report.services.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimPlatform {
    server: Server,
    staged: Option<Vec<Assignment>>,
}

impl SimPlatform {
    /// Wraps a configured server.
    pub fn new(server: Server) -> Self {
        SimPlatform {
            server,
            staged: None,
        }
    }

    /// The wrapped server.
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Mutable access to the wrapped server, for the controls the trait
    /// does not abstract (loads, fault plans, churn, timing plans).
    pub fn server_mut(&mut self) -> &mut Server {
        &mut self.server
    }
}

impl Platform for SimPlatform {
    fn cores(&self) -> usize {
        self.server.config().cores
    }

    fn dvfs(&self) -> &DvfsLadder {
        &self.server.config().dvfs
    }

    fn specs(&self) -> &[ServiceSpec] {
        self.server.specs()
    }

    fn actuate(&mut self, assignments: &[Assignment]) -> Result<(), PlatformError> {
        self.staged = Some(assignments.to_vec());
        Ok(())
    }

    fn observe_epoch(&mut self) -> Result<EpochReport, PlatformError> {
        let staged = self.staged.take().ok_or_else(|| PlatformError::Protocol {
            detail: "observe_epoch without a prior actuate".into(),
        })?;
        Ok(self.server.step(&staged)?)
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.server.set_telemetry(telemetry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_sim::{catalog, ServerConfig};

    fn server(seed: u64) -> Server {
        Server::new(
            ServerConfig::default(),
            vec![catalog::masstree(), catalog::moses()],
            seed,
        )
        .unwrap()
    }

    #[test]
    fn step_is_bit_identical_to_the_raw_server() {
        let mut raw = server(7);
        let mut platform = SimPlatform::new(server(7));
        let all = Assignment::first_n(18, platform.dvfs().max());
        for _ in 0..20 {
            let a = vec![all.clone(), all.clone()];
            let want = raw.step(&a).unwrap();
            let got = platform.step(&a).unwrap();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn observe_without_actuate_is_a_protocol_error() {
        let mut platform = SimPlatform::new(server(7));
        assert!(matches!(
            platform.observe_epoch(),
            Err(PlatformError::Protocol { .. })
        ));
    }
}
