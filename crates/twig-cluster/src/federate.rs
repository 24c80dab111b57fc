//! The federated learning plane: periodic weight-exchange rounds run
//! through the coordinator, hardened against every fault class the
//! cluster already injects.
//!
//! Every `round_period` epochs the plane opens a **round**: each live,
//! coordinator-reachable node hosting a replica of a service encodes its
//! agent's weights ([`weights_only`]: no optimiser moments, no replay
//! priorities) with the PR-4 checkpoint codec and ships the bytes to the
//! coordinator. The codec runs only on that wire: recipients merge, adopt
//! and roll back checkpoint structs in process. Payloads climb the
//! robustness ladder before any weight reaches a merge:
//!
//! 1. **request-time exclusion** — quarantined (frozen-agent) and
//!    still-untrained replicas are never asked to contribute;
//! 2. **integrity** — CRC + format validation ([`FedStats::rejected_corrupt`]);
//! 3. **shape** — candidates must match the plurality architecture of
//!    the round ([`FedStats::rejected_shape`]);
//! 4. **finiteness** — any NaN/∞ parameter rejects the payload;
//! 5. **Byzantine screen** — per-service EWMA distance screen with a
//!    hard magnitude limit ([`FedStats::rejected_divergent`]).
//!
//! Survivors of the ladder form the quorum. Below `min_quorum` the round
//! fails and is retried under saturating exponential backoff until the
//! attempt budget runs out (then it is abandoned until the next period).
//! A met quorum triggers a capacity-weighted merge per recipient; the
//! merged policy is **twin-run** (Q-magnitude probe before vs. after
//! adoption) and the whole service rolls back to its pre-round snapshots
//! on blowup. A coordinator blackout aborts the in-flight round outright
//! — nodes keep serving from local weights (local autonomy) — and
//! partitioned nodes neither contribute nor receive.
//!
//! Faults are injected by the seeded [`FedFaultPlan`]; with federation
//! enabled a run stays a pure function of
//! `(ClusterConfig, ClusterFaultConfig, FederateConfig, FedFaultConfig, seed)`.

use crate::fault::not_a_probability;
use crate::node::ClusterNode;
use crate::ClusterError;
use twig_core::next_backoff;
use twig_rl::federate::{
    check_eligible, check_finite, decode_payload, merge_round, same_shape, weights_only,
};
use twig_rl::{encode_checkpoint, ByzantineScreen, Contribution, MaBdqCheckpoint, ScreenConfig};
use twig_stats::fields::{check, Kind, Row};
use twig_stats::rng::{Rng, Xoshiro256};

/// Knobs of the federation plane.
#[derive(Debug, Clone, PartialEq)]
pub struct FederateConfig {
    /// Epochs between round starts (the round cadence).
    pub round_period: u64,
    /// Epochs a round waits for straggling payloads before resolving
    /// with whatever arrived.
    pub collect_timeout: u64,
    /// Minimum accepted payloads per service for a merge to proceed.
    pub min_quorum: usize,
    /// Minimum gradient steps a replica needs before it may contribute
    /// (cold replicas are recipients only).
    pub min_contributor_steps: u64,
}

/// Quorum-failed attempts (including the first) before a round is
/// abandoned until the next period.
const MAX_ROUND_ATTEMPTS: u32 = 3;
/// Backoff before the first quorum-failure retry, epochs.
const INITIAL_BACKOFF: u64 = 2;
/// Saturation point of the doubling backoff, epochs.
const MAX_BACKOFF: u64 = 8;
/// Post-merge twin-run tolerance: the merged policy's probe Q-magnitude may
/// exceed `VALIDATION_MULTIPLE × max(pre, 1)` on no recipient, else the
/// service rolls back.
const VALIDATION_MULTIPLE: f64 = 1.0e4;

impl Default for FederateConfig {
    fn default() -> Self {
        FederateConfig {
            round_period: 10,
            collect_timeout: 3,
            min_quorum: 2,
            min_contributor_steps: 1,
        }
    }
}

impl FederateConfig {
    /// Validates the plane's knobs.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] for a zero period, quorum or
    /// collect timeout.
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.round_period == 0 {
            return Err(ClusterError::invalid("round_period must be ≥ 1"));
        }
        if self.collect_timeout == 0 {
            return Err(ClusterError::invalid("collect_timeout must be ≥ 1"));
        }
        if self.min_quorum == 0 {
            return Err(ClusterError::invalid("min_quorum must be ≥ 1"));
        }
        Ok(())
    }
}

twig_telemetry::stats! {
    /// Lifetime counters of everything the federation plane did.
    /// Every field is mirrored into telemetry under the matching
    /// `fed.*` counter.
    pub struct FedStats {
        /// Rounds opened.
        rounds_started => "fed.rounds_started",
        /// Rounds that merged at least one service with no rollback.
        rounds_committed => "fed.rounds_committed",
        /// Rounds where no service reached quorum.
        rounds_quorum_failed => "fed.rounds_quorum_failed",
        /// Quorum-failed rounds that exhausted the attempt budget.
        rounds_abandoned => "fed.rounds_abandoned",
        /// Rounds aborted mid-flight by a coordinator blackout.
        rounds_aborted_offline => "fed.rounds_aborted_offline",
        /// Rounds in which at least one merged service rolled back.
        rounds_rolled_back => "fed.rounds_rolled_back",
        /// Contributor payloads requested (post request-time exclusion).
        payloads_requested => "fed.payloads_requested",
        /// Payloads that reached the coordinator inside the window.
        payloads_received => "fed.payloads_received",
        /// Payloads still in flight when the window closed.
        payloads_straggled => "fed.payloads_straggled",
        /// Payloads lost in flight (drop fault, contributor crash, abort).
        payloads_lost => "fed.payloads_lost",
        /// Payloads delivered but discarded unscreened by a round abort.
        payloads_discarded => "fed.payloads_discarded",
        /// Payloads that survived the whole screening ladder.
        payloads_accepted => "fed.payloads_accepted",
        /// Payloads rejected by CRC/format validation.
        rejected_corrupt => "fed.rejected_corrupt",
        /// Payloads rejected for mismatching the round's plurality shape.
        rejected_shape => "fed.rejected_shape",
        /// Payloads rejected for carrying non-finite parameters.
        rejected_nonfinite => "fed.rejected_nonfinite",
        /// Payloads rejected by the Byzantine distance screen.
        rejected_divergent => "fed.rejected_divergent",
        /// Replicas excluded at request time: quarantined (frozen) agents.
        excluded_quarantined => "fed.excluded_quarantined",
        /// Replicas excluded at request time: not yet trained.
        excluded_untrained => "fed.excluded_untrained",
        /// Service merges committed.
        service_merges => "fed.service_merges",
        /// Services whose accepted payloads fell below the quorum.
        service_quorum_failures => "fed.service_quorum_failures",
        /// Service merges rolled back by the post-merge twin run.
        service_rollbacks => "fed.service_rollbacks",
        /// Accepted payloads folded into committed merges.
        contributors_merged => "fed.contributors_merged",
        /// Replicas that adopted a committed merged policy.
        recipients_updated => "fed.recipients_updated",
        /// Replicas restored to their pre-round snapshot by a rollback.
        recipients_rolled_back => "fed.recipients_rolled_back",
        /// Replicas skipped because their architecture cannot adopt the
        /// round's merged shape.
        recipients_incompatible => "fed.recipients_incompatible",
        /// Committed adoptions by a previously-untrained (cold) replica.
        cold_transfers => "fed.cold_transfers",
        /// Merged payloads sabotaged by the fault plan after aggregation
        /// (exercises the twin-run rollback).
        merges_poisoned => "fed.merges_poisoned",
    }
}

/// How a Byzantine node damages the weights it contributes. All flavors
/// re-encode with a valid CRC, so they pass integrity and must be caught
/// higher up the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzantineFlavor {
    /// Every parameter becomes NaN — caught by the finiteness rung.
    NonFinite,
    /// Parameters blown up to ±10¹² — caught by the screen's hard
    /// magnitude limit.
    Garbage,
    /// Honest-scale weights shifted by a constant — caught by the
    /// screen's EWMA distance trip once the baseline is warm.
    Offset,
}

/// One scripted federation fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FedEvent {
    /// Flip a byte mid-payload from this node (CRC catches it).
    Corrupt {
        /// Sabotaged contributor.
        node: usize,
    },
    /// Truncate this node's payload to half length.
    Truncate {
        /// Sabotaged contributor.
        node: usize,
    },
    /// This node contributes Byzantine weights.
    Byzantine {
        /// Adversarial contributor.
        node: usize,
        /// Damage flavor.
        flavor: ByzantineFlavor,
    },
    /// This node's payloads arrive `epochs` late.
    Straggle {
        /// Straggling contributor.
        node: usize,
        /// Extra delivery delay, epochs.
        epochs: u64,
    },
    /// This node's payloads are lost in flight.
    Drop {
        /// Unlucky contributor.
        node: usize,
    },
    /// Corrupt the merged weights after aggregation, before adoption
    /// (exercises the post-merge twin-run rollback).
    PoisonMerge,
}

/// A [`FedEvent`] pinned to a round index (1-based, counting started
/// rounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FedScripted {
    /// Round the event fires in.
    pub round: u64,
    /// What happens.
    pub event: FedEvent,
}

/// Rates and scripted events of the federation fault injector.
#[derive(Debug, Clone, PartialEq)]
pub struct FedFaultConfig {
    /// Probability a contributor's payload is byte-corrupted per round.
    pub corrupt_rate: f64,
    /// Probability a contributor's payload is truncated per round.
    pub truncate_rate: f64,
    /// Probability a contributor turns Byzantine per round (flavor drawn
    /// uniformly).
    pub byzantine_rate: f64,
    /// Probability a contributor straggles per round.
    pub straggler_rate: f64,
    /// Delivery delay of a rate-drawn straggler, epochs.
    pub straggle_epochs: u64,
    /// Probability a contributor's payload is dropped in flight.
    pub drop_rate: f64,
    /// Probability a round's merged weights are poisoned post-merge.
    pub poison_merge_rate: f64,
    /// Exact scripted events, merged with the rate draws.
    pub scripted: Vec<FedScripted>,
}

impl Default for FedFaultConfig {
    fn default() -> Self {
        FedFaultConfig {
            corrupt_rate: 0.0,
            truncate_rate: 0.0,
            byzantine_rate: 0.0,
            straggler_rate: 0.0,
            straggle_epochs: 1,
            drop_rate: 0.0,
            poison_merge_rate: 0.0,
            scripted: Vec::new(),
        }
    }
}

impl FedFaultConfig {
    /// The field table: every rate and duration once, under its `.scn`
    /// key (`straggle` is one `<rate> <epochs>` record), in the order the
    /// scenario emitter writes them. The script is not a field: its `at`
    /// lines follow the table's.
    pub const FIELDS: &'static [Row<FedFaultConfig>] = twig_stats::field_rows![
        "corrupt_rate" => corrupt_rate: Probability;
        "truncate_rate" => truncate_rate: Probability;
        "byzantine_rate" => byzantine_rate: Probability;
        "straggle" => straggler_rate: Probability, straggle_epochs: Count;
        "drop_rate" => drop_rate: Probability;
        "poison_rate" => poison_merge_rate: Probability;
    ];

    /// Validates all rates are finite probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] when a rate is outside
    /// `[0, 1]` or not finite.
    pub fn validate(&self) -> Result<(), ClusterError> {
        check(Self::FIELDS, self, Kind::Probability).map_err(not_a_probability)
    }
}

/// Everything the fault plan injects into one round, pre-drawn per node
/// in a fixed order so consumers cannot perturb the stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundFaults {
    /// Per node: byte-corrupt this node's payloads.
    pub corrupt: Vec<bool>,
    /// Per node: truncate this node's payloads.
    pub truncate: Vec<bool>,
    /// Per node: Byzantine damage to apply, if any.
    pub byzantine: Vec<Option<ByzantineFlavor>>,
    /// Per node: extra delivery delay, epochs.
    pub straggle: Vec<u64>,
    /// Per node: lose this node's payloads in flight.
    pub drop: Vec<bool>,
    /// Poison the merged weights after aggregation.
    pub poison_merge: bool,
}

impl RoundFaults {
    fn none(nodes: usize) -> Self {
        RoundFaults {
            corrupt: vec![false; nodes],
            truncate: vec![false; nodes],
            byzantine: vec![None; nodes],
            straggle: vec![0; nodes],
            drop: vec![false; nodes],
            poison_merge: false,
        }
    }
}

/// The seeded federation fault injector.
#[derive(Debug, Clone)]
pub struct FedFaultPlan {
    config: FedFaultConfig,
    rng: Xoshiro256,
}

impl FedFaultPlan {
    /// Creates a plan with its own RNG stream, decorrelated from the
    /// workload and cluster-fault streams by a fixed xor tweak.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] for an invalid rate.
    pub fn new(config: FedFaultConfig, seed: u64) -> Result<Self, ClusterError> {
        config.validate()?;
        Ok(FedFaultPlan {
            config,
            rng: Xoshiro256::seed_from_u64(seed ^ 0xFEDE_7A7E_0F00_D5EC),
        })
    }

    /// A plan that injects nothing.
    pub fn disabled() -> Self {
        FedFaultPlan::new(FedFaultConfig::default(), 0).expect("zero rates are valid")
    }

    /// The configuration.
    pub fn config(&self) -> &FedFaultConfig {
        &self.config
    }

    /// Draws one round's faults. Fixed draw order — corrupt, truncate,
    /// Byzantine, straggle and drop per node, then the poison draw — so
    /// the stream is independent of cluster state.
    pub fn round_faults(&mut self, round: u64, nodes: usize) -> RoundFaults {
        let mut out = RoundFaults::none(nodes);
        for flag in out.corrupt.iter_mut() {
            *flag = self.rng.next_bool(self.config.corrupt_rate);
        }
        for flag in out.truncate.iter_mut() {
            *flag = self.rng.next_bool(self.config.truncate_rate);
        }
        for flavor in out.byzantine.iter_mut() {
            if self.rng.next_bool(self.config.byzantine_rate) {
                *flavor = Some(match self.rng.next_u64() % 3 {
                    0 => ByzantineFlavor::NonFinite,
                    1 => ByzantineFlavor::Garbage,
                    _ => ByzantineFlavor::Offset,
                });
            }
        }
        for delay in out.straggle.iter_mut() {
            if self.rng.next_bool(self.config.straggler_rate) {
                *delay = self.config.straggle_epochs;
            }
        }
        for flag in out.drop.iter_mut() {
            *flag = self.rng.next_bool(self.config.drop_rate);
        }
        out.poison_merge = self.rng.next_bool(self.config.poison_merge_rate);
        for ev in &self.config.scripted {
            if ev.round != round {
                continue;
            }
            match ev.event {
                FedEvent::Corrupt { node } => {
                    if let Some(f) = out.corrupt.get_mut(node) {
                        *f = true;
                    }
                }
                FedEvent::Truncate { node } => {
                    if let Some(f) = out.truncate.get_mut(node) {
                        *f = true;
                    }
                }
                FedEvent::Byzantine { node, flavor } => {
                    if let Some(f) = out.byzantine.get_mut(node) {
                        *f = Some(flavor);
                    }
                }
                FedEvent::Straggle { node, epochs } => {
                    if let Some(d) = out.straggle.get_mut(node) {
                        *d = (*d).max(epochs);
                    }
                }
                FedEvent::Drop { node } => {
                    if let Some(f) = out.drop.get_mut(node) {
                        *f = true;
                    }
                }
                FedEvent::PoisonMerge => out.poison_merge = true,
            }
        }
        out
    }
}

/// Applies a Byzantine flavor to an honestly-encoded payload. The result
/// re-encodes with a valid CRC, so it passes integrity and must be
/// caught by the finiteness rung or the screen.
fn sabotage(bytes: &[u8], flavor: ByzantineFlavor) -> Vec<u8> {
    let Ok(mut ckpt) = decode_payload(bytes) else {
        return bytes.to_vec();
    };
    match flavor {
        ByzantineFlavor::NonFinite => {
            for p in ckpt.params.iter_mut() {
                *p = f32::NAN;
            }
        }
        ByzantineFlavor::Garbage => {
            for (i, p) in ckpt.params.iter_mut().enumerate() {
                *p = if i % 2 == 0 { 1.0e12 } else { -1.0e12 };
            }
        }
        ByzantineFlavor::Offset => {
            for p in ckpt.params.iter_mut() {
                *p += 25.0;
            }
        }
    }
    encode_checkpoint(&ckpt)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PayloadState {
    InFlight,
    Delivered,
    Resolved,
}

#[derive(Debug, Clone)]
struct PendingPayload {
    node: usize,
    service: usize,
    arrives_at: u64,
    /// `None` models a payload lost in flight (drop fault).
    payload: Option<Vec<u8>>,
    state: PayloadState,
}

#[derive(Debug, Clone)]
struct ActiveRound {
    deadline: u64,
    pending: Vec<PendingPayload>,
    requested_per_service: Vec<u64>,
    poison_merge: bool,
}

/// The per-cluster federation round state machine. Owned by
/// [`crate::Cluster`] and stepped once per cluster epoch.
#[derive(Debug)]
pub(crate) struct FederationPlane {
    config: FederateConfig,
    plan: FedFaultPlan,
    screens: Vec<ByzantineScreen>,
    round: Option<ActiveRound>,
    round_id: u64,
    next_round_epoch: u64,
    attempts: u32,
    backoff: u64,
}

impl FederationPlane {
    pub(crate) fn new(
        config: FederateConfig,
        plan: FedFaultPlan,
        services: usize,
        current_epoch: u64,
    ) -> Result<Self, ClusterError> {
        config.validate()?;
        let screen = ByzantineScreen::new(ScreenConfig::default())
            .expect("the default screen config is valid");
        let screens = vec![screen; services];
        let period = config.round_period;
        Ok(FederationPlane {
            config,
            plan,
            screens,
            round: None,
            round_id: 0,
            next_round_epoch: (current_epoch / period + 1) * period,
            attempts: 0,
            backoff: INITIAL_BACKOFF,
        })
    }

    /// Whether no round is currently collecting payloads.
    pub(crate) fn idle(&self) -> bool {
        self.round.is_none()
    }

    fn schedule_next_period(&mut self, epoch: u64) {
        self.attempts = 0;
        self.backoff = INITIAL_BACKOFF;
        self.next_round_epoch = (epoch / self.config.round_period + 1) * self.config.round_period;
    }

    /// One federation step, run inside the cluster epoch after serving.
    pub(crate) fn step(
        &mut self,
        epoch: u64,
        blackout: bool,
        partition_left: &[u64],
        nodes: &mut [ClusterNode],
        delta: &mut FedStats,
    ) -> Result<(), ClusterError> {
        if blackout {
            // Coordinator down: abort the in-flight round wholesale. The
            // nodes keep serving from local weights (local autonomy).
            if let Some(round) = self.round.take() {
                for p in &round.pending {
                    match p.state {
                        PayloadState::InFlight => delta.payloads_lost += 1,
                        // Already delivered but never screened: the abort
                        // discards it before any rung ran.
                        PayloadState::Delivered => delta.payloads_discarded += 1,
                        PayloadState::Resolved => {}
                    }
                }
                delta.rounds_aborted_offline += 1;
                self.schedule_next_period(epoch);
            }
            return Ok(());
        }
        if self.round.is_none() && epoch >= self.next_round_epoch {
            self.start_round(epoch, partition_left, nodes, delta);
        }
        let Some(round) = self.round.as_mut() else {
            return Ok(());
        };
        // Deliver what can reach the coordinator this epoch.
        for p in round.pending.iter_mut() {
            if p.state != PayloadState::InFlight || epoch < p.arrives_at {
                continue;
            }
            if !nodes[p.node].is_alive() {
                p.state = PayloadState::Resolved;
                delta.payloads_lost += 1;
                continue;
            }
            if partition_left[p.node] > 0 {
                // Unreachable; held until the partition heals (or the
                // window closes).
                continue;
            }
            match &p.payload {
                None => {
                    p.state = PayloadState::Resolved;
                    delta.payloads_lost += 1;
                }
                Some(_) => {
                    p.state = PayloadState::Delivered;
                    delta.payloads_received += 1;
                }
            }
        }
        let all_in = round
            .pending
            .iter()
            .all(|p| p.state != PayloadState::InFlight);
        if epoch >= round.deadline || all_in {
            let round = self.round.take().expect("round is active");
            self.resolve_round(round, epoch, partition_left, nodes, delta)?;
        }
        Ok(())
    }

    fn start_round(
        &mut self,
        epoch: u64,
        partition_left: &[u64],
        nodes: &mut [ClusterNode],
        delta: &mut FedStats,
    ) {
        self.round_id += 1;
        delta.rounds_started += 1;
        let faults = self.plan.round_faults(self.round_id, nodes.len());
        let services = self.screens.len();
        let mut pending = Vec::new();
        let mut requested_per_service = vec![0u64; services];
        for (s, requested) in requested_per_service.iter_mut().enumerate() {
            for (n, node) in nodes.iter().enumerate() {
                if !node.is_alive() || partition_left[n] > 0 || !node.has_replica(s) {
                    continue;
                }
                if let Some(q) = node.quarantine_of(s) {
                    if check_eligible(q.frozen_agents).is_err() {
                        delta.excluded_quarantined += 1;
                        continue;
                    }
                }
                let steps = node.agent_steps_of(s).unwrap_or(0);
                if steps < self.config.min_contributor_steps {
                    delta.excluded_untrained += 1;
                    continue;
                }
                let Some(snapshot) = node.snapshot_of(s) else {
                    continue;
                };
                let honest = encode_checkpoint(&weights_only(snapshot));
                delta.payloads_requested += 1;
                *requested += 1;
                let payload = if faults.drop[n] {
                    None
                } else {
                    let mut bytes = match faults.byzantine[n] {
                        Some(flavor) => sabotage(&honest, flavor),
                        None => honest,
                    };
                    if faults.truncate[n] {
                        bytes.truncate(bytes.len() / 2);
                    }
                    if faults.corrupt[n] {
                        let at = bytes.len() / 2;
                        if let Some(b) = bytes.get_mut(at) {
                            *b ^= 0xFF;
                        }
                    }
                    Some(bytes)
                };
                pending.push(PendingPayload {
                    node: n,
                    service: s,
                    arrives_at: epoch.saturating_add(faults.straggle[n]),
                    payload,
                    state: PayloadState::InFlight,
                });
            }
        }
        self.round = Some(ActiveRound {
            deadline: epoch.saturating_add(self.config.collect_timeout),
            pending,
            requested_per_service,
            poison_merge: faults.poison_merge,
        });
    }

    fn resolve_round(
        &mut self,
        mut round: ActiveRound,
        epoch: u64,
        partition_left: &[u64],
        nodes: &mut [ClusterNode],
        delta: &mut FedStats,
    ) -> Result<(), ClusterError> {
        // Close the collection window.
        for p in round.pending.iter_mut() {
            if p.state == PayloadState::InFlight {
                p.state = PayloadState::Resolved;
                if nodes[p.node].is_alive() {
                    delta.payloads_straggled += 1;
                } else {
                    delta.payloads_lost += 1;
                }
            }
        }
        let mut merged_services = 0u64;
        let mut rolled_services = 0u64;
        for s in 0..self.screens.len() {
            if round.requested_per_service[s] == 0 {
                continue;
            }
            // Rung 2: integrity (CRC + format) on everything delivered.
            let mut candidates: Vec<(usize, MaBdqCheckpoint)> = Vec::new();
            for p in &round.pending {
                if p.service != s || p.state != PayloadState::Delivered {
                    continue;
                }
                let bytes = p.payload.as_ref().expect("delivered payloads have bytes");
                match decode_payload(bytes) {
                    Ok(ckpt) => candidates.push((p.node, ckpt)),
                    Err(_) => delta.rejected_corrupt += 1,
                }
            }
            // Rung 3: shape, against the round's plurality architecture.
            if let Some(reference) = plurality_reference(&candidates) {
                let reference = &candidates[reference].1;
                let fits: Vec<bool> = candidates
                    .iter()
                    .map(|(_, c)| same_shape(c, reference))
                    .collect();
                delta.rejected_shape += fits.iter().filter(|&&fit| !fit).count() as u64;
                let mut fits = fits.into_iter();
                candidates.retain(|_| fits.next().expect("one verdict per candidate"));
            }
            // Rung 4: finiteness.
            let mut finite = Vec::with_capacity(candidates.len());
            for (n, ckpt) in candidates {
                if check_finite(&ckpt).is_ok() {
                    finite.push((n, ckpt));
                } else {
                    delta.rejected_nonfinite += 1;
                }
            }
            // Rung 5: the Byzantine distance screen.
            let param_refs: Vec<&[f32]> = finite.iter().map(|(_, c)| c.params.as_slice()).collect();
            let verdicts = self.screens[s].screen(&param_refs);
            let mut accepted = Vec::with_capacity(finite.len());
            for ((n, ckpt), verdict) in finite.into_iter().zip(verdicts) {
                if verdict.is_ok() {
                    accepted.push((n, ckpt));
                } else {
                    delta.rejected_divergent += 1;
                }
            }
            delta.payloads_accepted += accepted.len() as u64;
            if accepted.len() < self.config.min_quorum {
                delta.service_quorum_failures += 1;
                continue;
            }
            let contributions: Vec<Contribution> = accepted
                .into_iter()
                .map(|(n, checkpoint)| Contribution {
                    contributor: n,
                    weight: nodes[n].platform().weight(),
                    checkpoint,
                })
                .collect();
            match self.merge_service(
                s,
                &contributions,
                round.poison_merge,
                partition_left,
                nodes,
                delta,
            )? {
                MergeOutcome::Committed => merged_services += 1,
                MergeOutcome::RolledBack => rolled_services += 1,
            }
        }
        // Classify the round and schedule the next one.
        if merged_services == 0 && rolled_services == 0 {
            delta.rounds_quorum_failed += 1;
            self.attempts += 1;
            if self.attempts >= MAX_ROUND_ATTEMPTS {
                delta.rounds_abandoned += 1;
                self.schedule_next_period(epoch);
            } else {
                self.next_round_epoch = epoch.saturating_add(self.backoff);
                self.backoff = next_backoff(self.backoff, MAX_BACKOFF);
            }
        } else if rolled_services > 0 {
            delta.rounds_rolled_back += 1;
            self.schedule_next_period(epoch);
        } else {
            delta.rounds_committed += 1;
            self.schedule_next_period(epoch);
        }
        Ok(())
    }

    /// Merges one service's accepted contributions into every reachable
    /// recipient, twin-runs the result, and rolls the whole service back
    /// when any recipient's merged policy blows up.
    fn merge_service(
        &mut self,
        s: usize,
        contributions: &[Contribution],
        poison: bool,
        partition_left: &[u64],
        nodes: &mut [ClusterNode],
        delta: &mut FedStats,
    ) -> Result<MergeOutcome, ClusterError> {
        struct Adoption {
            node: usize,
            snapshot: MaBdqCheckpoint,
            was_cold: bool,
            healthy: bool,
        }
        let mut adoptions: Vec<Adoption> = Vec::new();
        let mut any_failed = false;
        if poison {
            delta.merges_poisoned += 1;
        }
        for n in 0..nodes.len() {
            if !nodes[n].is_alive() || partition_left[n] > 0 || !nodes[n].has_replica(s) {
                continue;
            }
            let Some(snapshot) = nodes[n].snapshot_of(s) else {
                continue;
            };
            let mut merged = match merge_round(&snapshot, contributions) {
                Ok(m) => m,
                Err(_) => {
                    // Architecture cannot adopt the round's shape (e.g. a
                    // heterogeneous node with different branch cardinality).
                    delta.recipients_incompatible += 1;
                    continue;
                }
            };
            if poison {
                for p in merged.params.iter_mut() {
                    *p = 1.0e5;
                }
            }
            let was_cold = snapshot.steps == 0;
            let pre_probe = nodes[n].probe_q_magnitude(s)?.unwrap_or(0.0);
            nodes[n].adopt_round_state(s, &merged)?;
            let post_probe = nodes[n].probe_q_magnitude(s)?.unwrap_or(f64::INFINITY);
            let healthy =
                post_probe.is_finite() && post_probe <= VALIDATION_MULTIPLE * pre_probe.max(1.0);
            if !healthy {
                any_failed = true;
            }
            adoptions.push(Adoption {
                node: n,
                snapshot,
                was_cold,
                healthy,
            });
        }
        if any_failed {
            // Twin run caught a blowup: the whole service reverts to its
            // pre-round snapshots, which encode to the pre-round bytes.
            for a in &adoptions {
                nodes[a.node].adopt_round_state(s, &a.snapshot)?;
                delta.recipients_rolled_back += 1;
            }
            delta.service_rollbacks += 1;
            return Ok(MergeOutcome::RolledBack);
        }
        delta.service_merges += 1;
        delta.contributors_merged += contributions.len() as u64;
        delta.recipients_updated += adoptions.len() as u64;
        delta.cold_transfers += adoptions.iter().filter(|a| a.was_cold).count() as u64;
        debug_assert!(adoptions.iter().all(|a| a.healthy));
        Ok(MergeOutcome::Committed)
    }
}

enum MergeOutcome {
    Committed,
    RolledBack,
}

/// Index of the round's reference architecture: the shape shared by the
/// most decoded candidates, ties broken toward the lowest contributor index.
fn plurality_reference(candidates: &[(usize, MaBdqCheckpoint)]) -> Option<usize> {
    let mut best: Option<usize> = None;
    let mut best_count = 0usize;
    for i in 0..candidates.len() {
        let count = candidates
            .iter()
            .filter(|(_, c)| same_shape(c, &candidates[i].1))
            .count();
        if count > best_count {
            best = Some(i);
            best_count = count;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::coordinator::CoordinatorConfig;
    use crate::fault::ClusterFaultPlan;
    use crate::node::AgentTuning;
    use crate::node::NodePlatform;
    use twig_core::NodeId;
    use twig_sim::{catalog, DvfsLadder};
    use twig_telemetry::Telemetry;

    fn platform(cores: usize) -> NodePlatform {
        NodePlatform {
            cores,
            dvfs: DvfsLadder::default(),
        }
    }

    /// A standalone node hosting every service cold. Driving the plane
    /// directly against such nodes keeps weights frozen between rounds,
    /// which is what lets the byte-identity assertions bite.
    fn node(i: usize, cores: usize, services: usize) -> ClusterNode {
        let specs = vec![catalog::masstree(), catalog::xapian()][..services].to_vec();
        let mut n = ClusterNode::new(
            NodeId(i),
            platform(cores),
            specs,
            AgentTuning::default(),
            1000 + i as u64,
        )
        .unwrap();
        for s in 0..services {
            n.install_replica(s, None).unwrap();
        }
        n
    }

    /// Plane knobs for the standalone tests: short cadence, cold
    /// contributors allowed.
    fn fed_cfg() -> FederateConfig {
        FederateConfig {
            round_period: 2,
            collect_timeout: 2,
            min_quorum: 2,
            min_contributor_steps: 0,
        }
    }

    fn plane(cfg: FederateConfig, plan: FedFaultPlan, services: usize) -> FederationPlane {
        FederationPlane::new(cfg, plan, services, 0).unwrap()
    }

    fn run(plane: &mut FederationPlane, nodes: &mut [ClusterNode], epochs: u64) -> FedStats {
        let part = vec![0u64; nodes.len()];
        let mut stats = FedStats::default();
        for epoch in 1..=epochs {
            let mut delta = FedStats::default();
            plane.step(epoch, false, &part, nodes, &mut delta).unwrap();
            stats.add(&delta, &Telemetry::disabled());
        }
        stats
    }

    fn params_of(node: &ClusterNode, service: usize) -> Vec<f32> {
        decode_payload(&node.checkpoint_of(service).unwrap())
            .unwrap()
            .params
    }

    #[test]
    fn federate_config_validation() {
        assert!(FederateConfig::default().validate().is_ok());
        let d = FederateConfig::default;
        for bad in [
            FederateConfig {
                round_period: 0,
                ..d()
            },
            FederateConfig {
                collect_timeout: 0,
                ..d()
            },
            FederateConfig {
                min_quorum: 0,
                ..d()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
        let bad_rate = FedFaultConfig {
            corrupt_rate: 1.5,
            ..FedFaultConfig::default()
        };
        assert!(FedFaultPlan::new(bad_rate, 1).is_err());
    }

    #[test]
    fn disabled_fault_plan_draws_nothing_and_consumes_no_rng() {
        let mut plan = FedFaultPlan::disabled();
        let mut twin = FedFaultPlan::disabled();
        for round in 1..=20 {
            assert_eq!(plan.round_faults(round, 4), RoundFaults::none(4));
        }
        // Zero-probability draws consume no stream: the untouched twin
        // still agrees afterwards.
        assert_eq!(plan.round_faults(21, 3), twin.round_faults(21, 3));
    }

    #[test]
    fn scripted_round_events_fire_on_their_round() {
        let cfg = FedFaultConfig {
            scripted: vec![
                FedScripted {
                    round: 2,
                    event: FedEvent::Corrupt { node: 0 },
                },
                FedScripted {
                    round: 2,
                    event: FedEvent::Byzantine {
                        node: 1,
                        flavor: ByzantineFlavor::Garbage,
                    },
                },
                FedScripted {
                    round: 2,
                    event: FedEvent::Straggle { node: 2, epochs: 3 },
                },
                FedScripted {
                    round: 3,
                    event: FedEvent::PoisonMerge,
                },
            ],
            ..FedFaultConfig::default()
        };
        let mut plan = FedFaultPlan::new(cfg, 7).unwrap();
        assert_eq!(plan.round_faults(1, 3), RoundFaults::none(3));
        let r2 = plan.round_faults(2, 3);
        assert_eq!(r2.corrupt, vec![true, false, false]);
        assert_eq!(r2.byzantine[1], Some(ByzantineFlavor::Garbage));
        assert_eq!(r2.straggle, vec![0, 0, 3]);
        assert!(!r2.poison_merge);
        assert!(plan.round_faults(3, 3).poison_merge);
    }

    #[test]
    fn calm_round_commits_with_consensus_and_cold_transfers() {
        let mut nodes = vec![node(0, 18, 2), node(1, 18, 2), node(2, 18, 2)];
        let mut p = plane(fed_cfg(), FedFaultPlan::disabled(), 2);
        let stats = run(&mut p, &mut nodes, 3);
        assert_eq!(stats.rounds_started, 1);
        assert_eq!(stats.rounds_committed, 1);
        assert_eq!(stats.payloads_requested, 6);
        assert_eq!(stats.payloads_received, 6);
        assert_eq!(stats.payloads_accepted, 6);
        assert_eq!(stats.service_merges, 2);
        assert_eq!(stats.contributors_merged, 6);
        assert_eq!(stats.recipients_updated, 6);
        // Every recipient was untrained: all six adoptions are cold
        // policy transfers.
        assert_eq!(stats.cold_transfers, 6);
        let rejected = stats.rejected_corrupt
            + stats.rejected_shape
            + stats.rejected_nonfinite
            + stats.rejected_divergent;
        assert_eq!(rejected, 0);
        // Consensus: all recipients of a service share the merged
        // parameters bit for bit.
        for s in 0..2 {
            let reference = params_of(&nodes[0], s);
            for (n, node) in nodes.iter().enumerate().take(3).skip(1) {
                assert_eq!(params_of(node, s), reference, "service {s} node {n}");
            }
        }
    }

    #[test]
    fn committed_round_adopts_what_the_codec_round_trip_produced() {
        let mut nodes = vec![node(0, 18, 2), node(1, 12, 2), node(2, 18, 2)];
        // Serve until every agent has trained, so the snapshots carry Adam
        // moments and replay priorities, then freeze the weights.
        for epoch in 1..=40 {
            for n in nodes.iter_mut() {
                n.serve_epoch(&[200, 150], epoch).unwrap();
            }
        }
        // Pre-round snapshots, per service, per node.
        let pre: Vec<Vec<MaBdqCheckpoint>> = (0..2)
            .map(|s| nodes.iter().map(|n| n.snapshot_of(s).unwrap()).collect())
            .collect();
        let mut p = plane(fed_cfg(), FedFaultPlan::disabled(), 2);
        let stats = run(&mut p, &mut nodes, 3);
        assert_eq!(stats.rounds_committed, 1);
        // The 12-core node's network is the odd shape out: its payloads
        // fail the shape rung and it cannot adopt the merge.
        assert_eq!(stats.rejected_shape, 2);
        assert_eq!(stats.recipients_incompatible, 2);
        for (s, pre) in pre.iter().enumerate() {
            assert!(pre.iter().all(|c| c.steps > 0 && !c.priorities.is_empty()));
            let accepted: Vec<Contribution> = [0, 2]
                .into_iter()
                .map(|n| Contribution {
                    contributor: n,
                    weight: nodes[n].platform().weight(),
                    checkpoint: weights_only(pre[n].clone()),
                })
                .collect();
            for n in [0, 2] {
                let merged = merge_round(&pre[n], &accepted).unwrap();
                assert_eq!(
                    nodes[n].checkpoint_of(s).unwrap(),
                    encode_checkpoint(&merged),
                    "service {s} node {n}"
                );
            }
            // The incompatible recipient kept its own weights.
            assert_eq!(
                nodes[1].checkpoint_of(s).unwrap(),
                encode_checkpoint(&pre[1])
            );
        }
    }

    #[test]
    fn quorum_failure_backs_off_abandons_and_never_touches_weights() {
        let mut nodes = vec![node(0, 18, 1), node(1, 18, 1)];
        let before: Vec<Vec<u8>> = nodes.iter().map(|n| n.checkpoint_of(0).unwrap()).collect();
        let cfg = FederateConfig {
            round_period: 4,
            collect_timeout: 1,
            min_quorum: 3, // unreachable with two contributors
            min_contributor_steps: 0,
        };
        let mut p = plane(cfg, FedFaultPlan::disabled(), 1);
        // Attempts at epochs 4, 6 (+2) and 10 (+4) fail; the third
        // exhausts the budget, and the next period's first attempt, at 12,
        // fails too.
        let stats = run(&mut p, &mut nodes, 12);
        assert_eq!(
            stats.rounds_quorum_failed,
            u64::from(MAX_ROUND_ATTEMPTS) + 1
        );
        assert_eq!(stats.rounds_abandoned, 1);
        assert_eq!(stats.service_merges, 0);
        assert_eq!(stats.recipients_updated, 0);
        assert_eq!(stats.recipients_rolled_back, 0);
        // The quorum-failed rounds left every agent's weights
        // byte-identical to the pre-round snapshot.
        for (n, bytes) in nodes.iter().zip(&before) {
            assert_eq!(&n.checkpoint_of(0).unwrap(), bytes);
        }
    }

    #[test]
    fn poisoned_merge_rolls_back_to_pre_round_bytes() {
        let mut nodes = vec![node(0, 18, 1), node(1, 18, 1), node(2, 18, 1)];
        let before: Vec<Vec<u8>> = nodes.iter().map(|n| n.checkpoint_of(0).unwrap()).collect();
        let faults = FedFaultConfig {
            scripted: vec![FedScripted {
                round: 1,
                event: FedEvent::PoisonMerge,
            }],
            ..FedFaultConfig::default()
        };
        let mut p = plane(fed_cfg(), FedFaultPlan::new(faults, 3).unwrap(), 1);
        let stats = run(&mut p, &mut nodes, 3);
        assert_eq!(stats.merges_poisoned, 1);
        assert_eq!(stats.service_rollbacks, 1);
        assert_eq!(stats.rounds_rolled_back, 1);
        assert_eq!(stats.recipients_rolled_back, 3);
        assert_eq!(stats.recipients_updated, 0);
        // The twin run caught the blowup and every replica reverted to
        // its pre-round snapshot, byte for byte.
        for (n, bytes) in nodes.iter().zip(&before) {
            assert_eq!(&n.checkpoint_of(0).unwrap(), bytes);
        }
    }

    #[test]
    fn byzantine_payloads_never_reach_the_merge() {
        let mut nodes = vec![node(0, 18, 1), node(1, 18, 1), node(2, 18, 1)];
        let faults = FedFaultConfig {
            scripted: vec![
                FedScripted {
                    round: 1,
                    event: FedEvent::Byzantine {
                        node: 2,
                        flavor: ByzantineFlavor::Garbage,
                    },
                },
                FedScripted {
                    round: 2,
                    event: FedEvent::Byzantine {
                        node: 2,
                        flavor: ByzantineFlavor::NonFinite,
                    },
                },
            ],
            ..FedFaultConfig::default()
        };
        let mut p = plane(fed_cfg(), FedFaultPlan::new(faults, 5).unwrap(), 1);
        let stats = run(&mut p, &mut nodes, 5);
        assert_eq!(stats.rounds_committed, 2);
        assert_eq!(stats.rejected_divergent, 1);
        assert_eq!(stats.rejected_nonfinite, 1);
        // Only the honest payloads were folded in: two per round.
        assert_eq!(stats.payloads_accepted, 4);
        assert_eq!(stats.contributors_merged, 4);
        for p in params_of(&nodes[0], 0) {
            assert!(p.is_finite() && p.abs() < 1.0e6);
        }
    }

    #[test]
    fn corrupt_and_truncated_payloads_are_rejected_by_integrity() {
        let mut nodes = vec![node(0, 18, 1), node(1, 18, 1), node(2, 18, 1)];
        let faults = FedFaultConfig {
            scripted: vec![
                FedScripted {
                    round: 1,
                    event: FedEvent::Corrupt { node: 0 },
                },
                FedScripted {
                    round: 1,
                    event: FedEvent::Truncate { node: 1 },
                },
            ],
            ..FedFaultConfig::default()
        };
        let mut p = plane(fed_cfg(), FedFaultPlan::new(faults, 9).unwrap(), 1);
        let stats = run(&mut p, &mut nodes, 3);
        // Both damaged payloads die at the CRC/format rung; the one
        // survivor is below quorum, so nothing merges.
        assert_eq!(stats.payloads_received, 3);
        assert_eq!(stats.rejected_corrupt, 2);
        assert_eq!(stats.payloads_accepted, 1);
        assert_eq!(stats.service_quorum_failures, 1);
        assert_eq!(stats.rounds_quorum_failed, 1);
        assert_eq!(stats.recipients_updated, 0);
    }

    #[test]
    fn blackout_aborts_the_inflight_round() {
        let mut nodes = vec![node(0, 18, 1), node(1, 18, 1)];
        let faults = FedFaultConfig {
            scripted: vec![
                FedScripted {
                    round: 1,
                    event: FedEvent::Straggle { node: 0, epochs: 3 },
                },
                FedScripted {
                    round: 1,
                    event: FedEvent::Straggle { node: 1, epochs: 3 },
                },
            ],
            ..FedFaultConfig::default()
        };
        let cfg = FederateConfig {
            collect_timeout: 3,
            ..fed_cfg()
        };
        let mut p = plane(cfg, FedFaultPlan::new(faults, 11).unwrap(), 1);
        let part = vec![0u64; 2];
        let mut stats = FedStats::default();
        for (epoch, blackout) in [(1, false), (2, false), (3, true), (4, false), (5, false)] {
            let mut delta = FedStats::default();
            p.step(epoch, blackout, &part, &mut nodes, &mut delta)
                .unwrap();
            stats.add(&delta, &Telemetry::disabled());
        }
        // The round opened at epoch 2, was still collecting stragglers
        // at epoch 3, and the blackout killed it: both payloads lost.
        assert_eq!(stats.rounds_aborted_offline, 1);
        assert_eq!(stats.payloads_lost, 2);
        // The next period opened a fresh, clean round that committed —
        // its two payloads are the only ones that ever arrived.
        assert_eq!(stats.payloads_received, 2);
        assert_eq!(stats.rounds_started, 2);
        assert_eq!(stats.rounds_committed, 1);
    }

    #[test]
    fn partitioned_nodes_neither_contribute_nor_receive() {
        let mut nodes = vec![node(0, 18, 1), node(1, 18, 1), node(2, 18, 1)];
        let initial = params_of(&nodes[2], 0);
        let mut p = plane(fed_cfg(), FedFaultPlan::disabled(), 1);
        let mut stats = FedStats::default();
        for epoch in 1..=3u64 {
            // Node 2 is partitioned exactly over the round epoch.
            let part = if epoch == 2 {
                vec![0, 0, 1]
            } else {
                vec![0, 0, 0]
            };
            let mut delta = FedStats::default();
            p.step(epoch, false, &part, &mut nodes, &mut delta).unwrap();
            stats.add(&delta, &Telemetry::disabled());
        }
        assert_eq!(stats.payloads_requested, 2);
        assert_eq!(stats.rounds_committed, 1);
        assert_eq!(stats.recipients_updated, 2);
        // The partitioned node kept its local weights (local autonomy)…
        assert_eq!(params_of(&nodes[2], 0), initial);
        // …while the reachable pair converged on the merge.
        assert_eq!(params_of(&nodes[0], 0), params_of(&nodes[1], 0));
        assert_ne!(params_of(&nodes[0], 0), initial);
    }

    #[test]
    fn cluster_federation_end_to_end() {
        let config = ClusterConfig {
            nodes: (0..3).map(|_| platform(18)).collect(),
            services: vec![catalog::masstree(), catalog::xapian()],
            demand_rps: vec![1200, 900],
            replication: 2,
            suspect_after_misses: 2,
            coordinator: CoordinatorConfig::default(),
            tuning: AgentTuning {
                learn_epochs: 20,
                ..AgentTuning::default()
            },
            seed: 42,
        };
        let mut cluster =
            Cluster::new(config, ClusterFaultPlan::disabled(), Telemetry::disabled()).unwrap();
        cluster
            .enable_federation(
                FederateConfig {
                    round_period: 5,
                    ..FederateConfig::default()
                },
                FedFaultPlan::disabled(),
            )
            .unwrap();
        assert!(
            cluster
                .enable_federation(FederateConfig::default(), FedFaultPlan::disabled())
                .is_err(),
            "double enable must be rejected"
        );
        for _ in 0..30 {
            cluster.step().unwrap();
        }
        let stats = *cluster.fed_stats();
        assert!(stats.rounds_started >= 2, "{stats:?}");
        assert!(stats.rounds_committed >= 1, "{stats:?}");
        assert!(stats.recipients_updated >= 1, "{stats:?}");
    }
}
