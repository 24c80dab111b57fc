//! Federated weight aggregation for fleets of [`MaBdq`](crate::MaBdq)
//! agents.
//!
//! The cluster's federation plane (in `twig-cluster`) periodically
//! collects checkpoint-codec payloads from every eligible replica and
//! merges them into one policy per service. A payload is a
//! [`weights_only`] checkpoint: the ladder and the merge read its shape,
//! parameters and step count, never its optimiser moments or replay
//! priorities. This module holds the pure math and the screening ladder
//! that payloads must climb before their weights may touch a merge:
//!
//! 1. **Integrity** — [`decode_payload`]: CRC + format validation via the
//!    PR-4 codec ([`FedError::CorruptPayload`]);
//! 2. **Shape** — [`same_shape`] / [`check_shape`]: architecture
//!    fingerprint against the round's reference ([`FedError::ShapeMismatch`]);
//! 3. **Finiteness** — [`check_finite`]: every weight a real number
//!    ([`FedError::NonFinitePayload`]);
//! 4. **Eligibility** — [`check_eligible`]: contributors with quarantined
//!    agents never contribute ([`FedError::QuarantinedContributor`]);
//! 5. **Byzantine screen** — [`ByzantineScreen`]: payloads whose weights
//!    sit implausibly far from the round consensus are rejected before
//!    the merge ([`FedError::DivergentPayload`]).
//!
//! What survives is merged by [`merge_round`]: a capacity-weighted mean
//! of the contributors' flat parameter vectors, accumulated in `f64`
//! over contributions **sorted by contributor id**, so the result is
//! bit-identical under any permutation of the input order. A single
//! contributor is special-cased to an exact copy (the IEEE quotient
//! `(w·x)/w` is not exact in general), which is what makes cold-server
//! policy transfer through a one-donor round byte-faithful.

use crate::checkpoint::Moments;
use crate::checkpoint::{decode_checkpoint, MaBdqCheckpoint};
use std::error::Error;
use std::fmt;

/// Error produced by the federated-aggregation ladder. Every rejection a
/// payload can suffer on its way to a merge is a distinct variant, so the
/// cluster's federation plane can count them separately.
///
/// # Examples
///
/// ```
/// use twig_rl::federate::{decode_payload, FedError};
///
/// assert!(matches!(
///     decode_payload(b"not a checkpoint"),
///     Err(FedError::CorruptPayload { .. })
/// ));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FedError {
    /// A configuration value was outside its valid domain.
    InvalidConfig {
        /// Human-readable description.
        detail: String,
    },
    /// A payload failed CRC or format validation (bad magic, truncation,
    /// bit flips).
    CorruptPayload {
        /// Human-readable description.
        detail: String,
    },
    /// A payload decoded cleanly but its architecture fingerprint does
    /// not match the round's reference shape.
    ShapeMismatch {
        /// Human-readable description.
        detail: String,
    },
    /// A payload carried NaN or infinite weights.
    NonFinitePayload {
        /// Human-readable description.
        detail: String,
    },
    /// A payload's weights diverge implausibly from the round consensus
    /// (Byzantine screen).
    DivergentPayload {
        /// Human-readable description.
        detail: String,
    },
    /// The contributor has quarantined (frozen) agents and is barred
    /// from the round.
    QuarantinedContributor {
        /// Agents currently frozen on the contributor.
        frozen_agents: usize,
    },
    /// Too few accepted contributions to merge.
    QuorumNotMet {
        /// Accepted contributions.
        got: usize,
        /// Minimum required.
        need: usize,
    },
}

impl fmt::Display for FedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FedError::InvalidConfig { detail } => write!(f, "invalid config: {detail}"),
            FedError::CorruptPayload { detail } => write!(f, "corrupt payload: {detail}"),
            FedError::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
            FedError::NonFinitePayload { detail } => {
                write!(f, "non-finite payload: {detail}")
            }
            FedError::DivergentPayload { detail } => {
                write!(f, "divergent payload: {detail}")
            }
            FedError::QuarantinedContributor { frozen_agents } => {
                write!(f, "contributor has {frozen_agents} quarantined agents")
            }
            FedError::QuorumNotMet { got, need } => {
                write!(f, "quorum not met: {got} of {need} required contributions")
            }
        }
    }
}

impl Error for FedError {}

/// One eligible, screened weight contribution to a federation round.
#[derive(Debug, Clone, PartialEq)]
pub struct Contribution {
    /// Contributing node's index — the canonical sort key that makes the
    /// merge permutation-invariant.
    pub contributor: usize,
    /// Capacity weight (e.g. cores × max MHz); must be nonzero.
    pub weight: u64,
    /// The contributor's decoded checkpoint.
    pub checkpoint: MaBdqCheckpoint,
}

/// Rung 1 of the screening ladder: [`decode_checkpoint`], which verifies
/// the CRC and the format header once, before it parses anything.
///
/// # Errors
///
/// Returns [`FedError::CorruptPayload`] for any byte-level damage.
pub fn decode_payload(bytes: &[u8]) -> Result<MaBdqCheckpoint, FedError> {
    decode_checkpoint(bytes).map_err(|e| FedError::CorruptPayload {
        detail: e.to_string(),
    })
}

/// Whether two checkpoints share an architecture fingerprint: agents,
/// state width, branches, trunk and head widths, and parameter count.
pub fn same_shape(a: &MaBdqCheckpoint, b: &MaBdqCheckpoint) -> bool {
    a.agents == b.agents
        && a.state_dim == b.state_dim
        && a.branches == b.branches
        && a.trunk_hidden == b.trunk_hidden
        && a.head_hidden == b.head_hidden
        && a.params.len() == b.params.len()
}

/// Rung 2: the candidate's architecture fingerprint must match the
/// round's reference shape exactly ([`same_shape`]) — heterogeneous
/// platforms produce different branch cardinalities, and averaging across
/// shapes is meaningless.
///
/// # Errors
///
/// Returns [`FedError::ShapeMismatch`] on any fingerprint difference.
pub fn check_shape(
    candidate: &MaBdqCheckpoint,
    reference: &MaBdqCheckpoint,
) -> Result<(), FedError> {
    if !same_shape(candidate, reference) {
        return Err(FedError::ShapeMismatch {
            detail: format!(
                "candidate ({} agents, state {}, branches {:?}, trunk {:?}, head {}, \
                 {} params) vs reference ({} agents, state {}, branches {:?}, trunk {:?}, \
                 head {}, {} params)",
                candidate.agents,
                candidate.state_dim,
                candidate.branches,
                candidate.trunk_hidden,
                candidate.head_hidden,
                candidate.params.len(),
                reference.agents,
                reference.state_dim,
                reference.branches,
                reference.trunk_hidden,
                reference.head_hidden,
                reference.params.len(),
            ),
        });
    }
    Ok(())
}

/// Rung 3: every weight must be a real number — a single NaN in a merge
/// poisons every recipient.
///
/// # Errors
///
/// Returns [`FedError::NonFinitePayload`] naming the first bad index.
pub fn check_finite(candidate: &MaBdqCheckpoint) -> Result<(), FedError> {
    if let Some(at) = candidate.params.iter().position(|p| !p.is_finite()) {
        return Err(FedError::NonFinitePayload {
            detail: format!("parameter {at} is {}", candidate.params[at]),
        });
    }
    Ok(())
}

/// Rung 4: a contributor with quarantined agents is in an untrusted
/// regime (its divergence tripped PR-4's guards) and must not contribute
/// this round.
///
/// # Errors
///
/// Returns [`FedError::QuarantinedContributor`] when any agent is frozen.
pub fn check_eligible(frozen_agents: usize) -> Result<(), FedError> {
    if frozen_agents > 0 {
        return Err(FedError::QuarantinedContributor { frozen_agents });
    }
    Ok(())
}

/// Knobs of the [`ByzantineScreen`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScreenConfig {
    /// Absolute per-weight magnitude limit; a candidate with any weight
    /// beyond it is rejected outright, even before the baseline warms up.
    pub hard_limit: f64,
    /// A candidate whose RMS distance to the round centroid exceeds
    /// `trip_multiple ×` the EWMA baseline (after warm-up) is rejected.
    pub trip_multiple: f64,
    /// Rounds observed before the EWMA baseline is trusted to trip.
    pub warmup_rounds: u32,
    /// EWMA smoothing factor in `(0, 1]`.
    pub alpha: f64,
}

impl Default for ScreenConfig {
    fn default() -> Self {
        ScreenConfig {
            hard_limit: 1e6,
            trip_multiple: 8.0,
            warmup_rounds: 3,
            alpha: 0.2,
        }
    }
}

/// Distances below this floor never arm the divergence trip: honest
/// replicas trained from the same seed can agree to within noise, and a
/// near-zero baseline must not turn that agreement into a tripwire.
const BASELINE_FLOOR: f64 = 1e-3;

/// Rung 5: the per-round Byzantine screen.
///
/// Each round, candidates are compared against the **round centroid** —
/// the coordinate-wise *median* of every candidate that passes the hard
/// magnitude limit, so a minority of adversarial payloads cannot drag
/// the reference point toward themselves the way a mean would. A
/// candidate is rejected when any weight exceeds the hard limit, or —
/// once the screen has observed `warmup_rounds` rounds — when its RMS
/// distance to the centroid exceeds `trip_multiple ×` the EWMA baseline
/// of accepted distances. Accepted distances feed the baseline, so the
/// screen tracks the fleet's honest drift.
#[derive(Debug, Clone)]
pub struct ByzantineScreen {
    config: ScreenConfig,
    baseline: f64,
    rounds_observed: u32,
}

impl ByzantineScreen {
    /// Builds a screen.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] for a non-positive or
    /// non-finite hard limit, a trip multiple ≤ 1, or α outside `(0, 1]`.
    pub fn new(config: ScreenConfig) -> Result<Self, FedError> {
        if !config.hard_limit.is_finite() || config.hard_limit <= 0.0 {
            return Err(FedError::InvalidConfig {
                detail: format!("hard_limit must be positive, got {}", config.hard_limit),
            });
        }
        if !config.trip_multiple.is_finite() || config.trip_multiple <= 1.0 {
            return Err(FedError::InvalidConfig {
                detail: format!("trip_multiple must exceed 1, got {}", config.trip_multiple),
            });
        }
        if !(config.alpha.is_finite() && config.alpha > 0.0 && config.alpha <= 1.0) {
            return Err(FedError::InvalidConfig {
                detail: format!("alpha must be in (0, 1], got {}", config.alpha),
            });
        }
        Ok(ByzantineScreen {
            config,
            baseline: 0.0,
            rounds_observed: 0,
        })
    }

    /// The current EWMA distance baseline (0 before any round).
    pub fn baseline(&self) -> f64 {
        self.baseline
    }

    /// Rounds whose accepted distances fed the baseline.
    pub fn rounds_observed(&self) -> u32 {
        self.rounds_observed
    }

    /// Screens one round of candidate parameter vectors, returning one
    /// verdict per candidate in input order. All candidates must share a
    /// length (the caller has already shape-checked them).
    pub fn screen(&mut self, candidates: &[&[f32]]) -> Vec<Result<(), FedError>> {
        if candidates.is_empty() {
            return Vec::new();
        }
        let dim = candidates[0].len();
        // Hard pass: reject outright anything with an implausible or
        // non-finite weight, and build the centroid from the rest.
        let hard_ok: Vec<bool> = candidates
            .iter()
            .map(|p| {
                p.len() == dim
                    && p.iter()
                        .all(|&w| w.is_finite() && f64::from(w).abs() <= self.config.hard_limit)
            })
            .collect();
        let survivors: Vec<&[f32]> = candidates
            .iter()
            .zip(&hard_ok)
            .filter(|(_, &ok)| ok)
            .map(|(p, _)| *p)
            .collect();
        let n = survivors.len();
        if n == 0 || dim == 0 {
            return candidates
                .iter()
                .map(|_| {
                    Err(FedError::DivergentPayload {
                        detail: "no candidate passed the hard magnitude limit".into(),
                    })
                })
                .collect();
        }
        // Coordinate-wise median over the hard survivors: robust to a
        // minority of adversarial payloads, unlike a mean centroid.
        let mut column = vec![0.0f64; n];
        let mut centroid = vec![0.0f64; dim];
        for (j, c) in centroid.iter_mut().enumerate() {
            for (x, p) in column.iter_mut().zip(&survivors) {
                *x = f64::from(p[j]);
            }
            *c = median(&mut column);
        }
        let rms = |p: &[f32]| -> f64 {
            let sum: f64 = p
                .iter()
                .zip(&centroid)
                .map(|(&w, &c)| {
                    let d = f64::from(w) - c;
                    d * d
                })
                .sum();
            (sum / dim as f64).sqrt()
        };
        let warm = self.rounds_observed >= self.config.warmup_rounds;
        let threshold = self.config.trip_multiple * self.baseline.max(BASELINE_FLOOR);
        let mut accepted_sum = 0.0f64;
        let mut accepted_n = 0usize;
        let verdicts: Vec<Result<(), FedError>> = candidates
            .iter()
            .zip(&hard_ok)
            .map(|(p, &ok)| {
                if !ok {
                    return Err(FedError::DivergentPayload {
                        detail: format!(
                            "a weight exceeds the hard magnitude limit {}",
                            self.config.hard_limit
                        ),
                    });
                }
                let d = rms(p);
                if warm && d > threshold {
                    return Err(FedError::DivergentPayload {
                        detail: format!(
                            "RMS distance {d:.6} to the round centroid exceeds \
                             {:.6} ({}× baseline)",
                            threshold, self.config.trip_multiple
                        ),
                    });
                }
                accepted_sum += d;
                accepted_n += 1;
                Ok(())
            })
            .collect();
        if accepted_n > 0 {
            let mean = accepted_sum / accepted_n as f64;
            self.baseline = if self.rounds_observed == 0 {
                mean
            } else {
                self.config.alpha * mean + (1.0 - self.config.alpha) * self.baseline
            };
            self.rounds_observed += 1;
        }
        verdicts
    }
}

/// The median of a non-empty `column` in `total_cmp` order, reordering it.
/// An unstable sort is exact here: values `total_cmp` calls equal have the
/// same bits, and the even case's sum commutes.
fn median(column: &mut [f64]) -> f64 {
    let n = column.len();
    column.sort_unstable_by(f64::total_cmp);
    if n % 2 == 1 {
        column[n / 2]
    } else {
        (column[n / 2 - 1] + column[n / 2]) / 2.0
    }
}

/// Capacity-weighted mean of the contributors' flat parameter vectors.
///
/// Contributions are sorted by contributor id before a fixed-order `f64`
/// accumulation, so the result is **bit-identical under permutation** of
/// the input. A single contributor returns an exact copy of its
/// parameters (the IEEE quotient `(w·x)/w` is not exact in general).
///
/// # Errors
///
/// - [`FedError::QuorumNotMet`] for an empty contribution list;
/// - [`FedError::InvalidConfig`] for a zero weight or duplicate
///   contributor ids;
/// - [`FedError::ShapeMismatch`] when parameter lengths disagree.
pub fn weighted_mean_params(contributions: &[Contribution]) -> Result<Vec<f32>, FedError> {
    if contributions.is_empty() {
        return Err(FedError::QuorumNotMet { got: 0, need: 1 });
    }
    let mut order: Vec<usize> = (0..contributions.len()).collect();
    order.sort_unstable_by_key(|&i| contributions[i].contributor);
    for pair in order.windows(2) {
        if contributions[pair[0]].contributor == contributions[pair[1]].contributor {
            return Err(FedError::InvalidConfig {
                detail: format!(
                    "duplicate contributor {}",
                    contributions[pair[0]].contributor
                ),
            });
        }
    }
    let dim = contributions[0].checkpoint.params.len();
    for c in contributions {
        if c.weight == 0 {
            return Err(FedError::InvalidConfig {
                detail: format!("contributor {} has zero weight", c.contributor),
            });
        }
        if c.checkpoint.params.len() != dim {
            return Err(FedError::ShapeMismatch {
                detail: format!(
                    "contributor {} has {} params, expected {dim}",
                    c.contributor,
                    c.checkpoint.params.len()
                ),
            });
        }
    }
    if contributions.len() == 1 {
        return Ok(contributions[0].checkpoint.params.clone());
    }
    let total: f64 = order.iter().map(|&i| contributions[i].weight as f64).sum();
    let mut acc = vec![0.0f64; dim];
    for &i in &order {
        let c = &contributions[i];
        let w = c.weight as f64;
        for (a, &p) in acc.iter_mut().zip(&c.checkpoint.params) {
            *a += w * f64::from(p);
        }
    }
    Ok(acc.into_iter().map(|a| (a / total) as f32).collect())
}

/// Builds the merged checkpoint a recipient adopts after a round: the
/// recipient's own checkpoint with its parameters replaced by the
/// capacity-weighted mean, its optimizer moments cleared (moments of
/// averaged weights are meaningless — Adam re-warms), and its step
/// counter raised to the most-trained contributor's so a cold recipient
/// inherits trained status (ε resumes at the exploitation point, zero
/// cold-start learning epochs).
///
/// # Errors
///
/// Propagates [`weighted_mean_params`] errors, plus
/// [`FedError::ShapeMismatch`] when a contribution does not match the
/// recipient's shape.
pub fn merge_round(
    recipient: &MaBdqCheckpoint,
    contributions: &[Contribution],
) -> Result<MaBdqCheckpoint, FedError> {
    for c in contributions {
        check_shape(&c.checkpoint, recipient)?;
    }
    let params = weighted_mean_params(contributions)?;
    let steps = contributions
        .iter()
        .map(|c| c.checkpoint.steps)
        .fold(recipient.steps, u64::max);
    let mut merged = recipient.clone();
    merged.params = params;
    merged.adam = Moments::default();
    merged.steps = steps;
    Ok(merged)
}

/// A contributor's round payload: its checkpoint with the Adam moments and
/// replay priorities emptied. Every rung of the ladder and
/// [`merge_round`] read only a contribution's shape, `params` and
/// `steps`, so a round decides exactly as it would on the full checkpoint
/// while the frame shrinks to about a third.
pub fn weights_only(checkpoint: MaBdqCheckpoint) -> MaBdqCheckpoint {
    MaBdqCheckpoint {
        adam: Moments::default(),
        priorities: Vec::new(),
        ..checkpoint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::encode_checkpoint;
    use twig_stats::rng::{Rng, Xoshiro256};

    fn ckpt(params: Vec<f32>, steps: u64) -> MaBdqCheckpoint {
        MaBdqCheckpoint {
            agents: 1,
            state_dim: 2,
            branches: vec![3],
            trunk_hidden: vec![4],
            head_hidden: 2,
            params,
            adam: Moments::default(),
            steps,
            skipped_steps: 0,
            per_step: 0,
            per_max_priority: 1.0,
            priorities: vec![],
        }
    }

    fn contribution(id: usize, weight: u64, params: Vec<f32>) -> Contribution {
        Contribution {
            contributor: id,
            weight,
            checkpoint: ckpt(params, 10),
        }
    }

    fn random_params(rng: &mut Xoshiro256, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| (rng.next_f64() * 2.0 - 1.0) as f32)
            .collect()
    }

    #[test]
    fn median_ignores_the_order_of_the_column_bit_for_bit() {
        // Values from a small pool, so columns often hold ties and both
        // signed zeros, plus a fresh random value now and then. A stable
        // sort of the column in its given order is the reference.
        let pool = [0.0, -0.0, 1.5, -1.5, 0.25, f64::MIN_POSITIVE, -3.0];
        let mut rng = Xoshiro256::seed_from_u64(11);
        for trial in 0..10_000 {
            let n = 1 + trial % 7;
            let column: Vec<f64> = (0..n)
                .map(|_| match rng.range_usize(0, pool.len() + 1) {
                    i if i < pool.len() => pool[i],
                    _ => f64::from((rng.next_f64() * 2.0 - 1.0) as f32),
                })
                .collect();
            let mut sorted = column.clone();
            sorted.sort_by(f64::total_cmp);
            let want = if n % 2 == 1 {
                sorted[n / 2]
            } else {
                (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
            };
            let mut reversed: Vec<f64> = column.iter().rev().copied().collect();
            for got in [median(&mut column.clone()), median(&mut reversed)] {
                assert_eq!(got.to_bits(), want.to_bits(), "column {column:?}");
            }
        }
    }

    #[test]
    fn mean_is_permutation_invariant() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        for trial in 0..50 {
            let n = 2 + (trial % 5);
            let dim = 1 + (trial % 17);
            let mut contributions: Vec<Contribution> = (0..n)
                .map(|i| contribution(i, 1 + rng.next_u64() % 1000, random_params(&mut rng, dim)))
                .collect();
            let reference = weighted_mean_params(&contributions).unwrap();
            // A deterministic shuffle per trial.
            for i in (1..contributions.len()).rev() {
                let j = (rng.next_u64() as usize) % (i + 1);
                contributions.swap(i, j);
            }
            let shuffled = weighted_mean_params(&contributions).unwrap();
            assert_eq!(
                reference.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                shuffled.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                "trial {trial}: permutation changed the merged bits"
            );
        }
    }

    #[test]
    fn single_contributor_is_exact_identity() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        for trial in 0..50 {
            let dim = 1 + (trial % 23);
            let params = random_params(&mut rng, dim);
            let weight = 1 + rng.next_u64() % 10_000;
            let merged = weighted_mean_params(&[contribution(4, weight, params.clone())]).unwrap();
            assert_eq!(
                params.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                merged.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                "trial {trial}: one-donor merge must be byte-faithful"
            );
        }
    }

    #[test]
    fn excluded_contributor_has_no_influence() {
        let mut rng = Xoshiro256::seed_from_u64(13);
        for trial in 0..50 {
            let dim = 1 + (trial % 13);
            let kept: Vec<Contribution> = (0..3)
                .map(|i| contribution(i, 1 + rng.next_u64() % 100, random_params(&mut rng, dim)))
                .collect();
            let excluded = contribution(9, 1 + rng.next_u64() % 100, random_params(&mut rng, dim));
            let without = weighted_mean_params(&kept).unwrap();
            // The excluded agent never enters the list — dropping it is
            // the exclusion mechanism — so any list equal to `kept` up to
            // permutation merges identically no matter what the excluded
            // agent's weights were.
            let mut reordered = kept.clone();
            reordered.rotate_left(trial % 3);
            let again = weighted_mean_params(&reordered).unwrap();
            assert_eq!(without, again);
            drop(excluded);
        }
    }

    #[test]
    fn weighted_mean_matches_f64_reference() {
        let contributions = vec![
            contribution(0, 1, vec![1.0, -2.0]),
            contribution(1, 3, vec![5.0, 6.0]),
        ];
        let merged = weighted_mean_params(&contributions).unwrap();
        assert_eq!(merged, vec![4.0, 4.0]);
    }

    #[test]
    fn corrupt_payload_rejected() {
        let bytes = encode_checkpoint(&ckpt(vec![1.0, 2.0], 1));
        decode_payload(&bytes).unwrap();
        let mut bad = bytes.clone();
        bad[bytes.len() / 2] ^= 0xFF;
        assert!(matches!(
            decode_payload(&bad),
            Err(FedError::CorruptPayload { .. })
        ));
        assert!(matches!(
            decode_payload(&bytes[..bytes.len() - 3]),
            Err(FedError::CorruptPayload { .. })
        ));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let reference = ckpt(vec![1.0, 2.0], 1);
        let mut other = reference.clone();
        other.branches = vec![5];
        assert!(matches!(
            check_shape(&other, &reference),
            Err(FedError::ShapeMismatch { .. })
        ));
        assert!(!same_shape(&other, &reference));
        let mut other = reference.clone();
        other.params.push(0.0);
        assert!(matches!(
            check_shape(&other, &reference),
            Err(FedError::ShapeMismatch { .. })
        ));
        assert!(!same_shape(&other, &reference));
        check_shape(&reference.clone(), &reference).unwrap();
        // Only the fingerprint counts: weights, moments and counters differ.
        assert!(same_shape(&ckpt(vec![7.0, 8.0], 9), &reference));
    }

    #[test]
    fn non_finite_payload_rejected() {
        let good = ckpt(vec![1.0, 2.0], 1);
        check_finite(&good).unwrap();
        assert!(matches!(
            check_finite(&ckpt(vec![1.0, f32::NAN], 1)),
            Err(FedError::NonFinitePayload { .. })
        ));
        assert!(matches!(
            check_finite(&ckpt(vec![f32::INFINITY], 1)),
            Err(FedError::NonFinitePayload { .. })
        ));
    }

    #[test]
    fn quarantined_contributor_rejected() {
        check_eligible(0).unwrap();
        assert_eq!(
            check_eligible(2),
            Err(FedError::QuarantinedContributor { frozen_agents: 2 })
        );
    }

    #[test]
    fn quorum_and_config_rejections() {
        assert_eq!(
            weighted_mean_params(&[]),
            Err(FedError::QuorumNotMet { got: 0, need: 1 })
        );
        let dup = vec![contribution(3, 1, vec![1.0]), contribution(3, 1, vec![2.0])];
        assert!(matches!(
            weighted_mean_params(&dup),
            Err(FedError::InvalidConfig { .. })
        ));
        let zero = vec![contribution(0, 0, vec![1.0])];
        assert!(matches!(
            weighted_mean_params(&zero),
            Err(FedError::InvalidConfig { .. })
        ));
        let ragged = vec![
            contribution(0, 1, vec![1.0]),
            contribution(1, 1, vec![1.0, 2.0]),
        ];
        assert!(matches!(
            weighted_mean_params(&ragged),
            Err(FedError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn screen_rejects_hard_limit_and_ewma_divergence() {
        let mut screen = ByzantineScreen::new(ScreenConfig {
            warmup_rounds: 2,
            ..ScreenConfig::default()
        })
        .unwrap();
        // Garbage magnitudes are rejected from round one.
        let honest_a = vec![0.5f32; 8];
        let honest_b = vec![0.6f32; 8];
        let garbage = vec![1e9f32; 8];
        let verdicts = screen.screen(&[&honest_a, &honest_b, &garbage]);
        assert!(verdicts[0].is_ok() && verdicts[1].is_ok());
        assert!(matches!(
            verdicts[2],
            Err(FedError::DivergentPayload { .. })
        ));
        // Warm the baseline with honest rounds…
        for _ in 0..3 {
            let v = screen.screen(&[&honest_a, &honest_b]);
            assert!(v.iter().all(Result::is_ok));
        }
        assert!(screen.rounds_observed() >= 2);
        // …then an in-range but offset payload trips the EWMA screen.
        let offset = vec![500.0f32; 8];
        let verdicts = screen.screen(&[&honest_a, &honest_b, &offset]);
        assert!(verdicts[0].is_ok() && verdicts[1].is_ok());
        assert!(matches!(
            verdicts[2],
            Err(FedError::DivergentPayload { .. })
        ));
    }

    #[test]
    fn screen_rejects_everything_when_no_hard_survivor() {
        let mut screen = ByzantineScreen::new(ScreenConfig::default()).unwrap();
        let bad = vec![f32::NAN; 4];
        let verdicts = screen.screen(&[&bad]);
        assert!(matches!(
            verdicts[0],
            Err(FedError::DivergentPayload { .. })
        ));
        assert_eq!(screen.rounds_observed(), 0);
    }

    #[test]
    fn screen_config_validated() {
        for bad in [
            ScreenConfig {
                hard_limit: 0.0,
                ..ScreenConfig::default()
            },
            ScreenConfig {
                trip_multiple: 1.0,
                ..ScreenConfig::default()
            },
            ScreenConfig {
                alpha: 0.0,
                ..ScreenConfig::default()
            },
            ScreenConfig {
                alpha: f64::NAN,
                ..ScreenConfig::default()
            },
        ] {
            assert!(matches!(
                ByzantineScreen::new(bad),
                Err(FedError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn merge_round_clears_moments_and_inherits_steps() {
        let mut recipient = ckpt(vec![0.0, 0.0], 0);
        recipient.adam = Moments {
            slots: vec![crate::checkpoint::MomentSlot {
                id: 0,
                steps: 3,
                m: vec![0.1, 0.2],
                v: vec![0.3, 0.4],
            }],
        };
        let contributions = vec![
            Contribution {
                contributor: 0,
                weight: 1,
                checkpoint: ckpt(vec![2.0, 4.0], 120),
            },
            Contribution {
                contributor: 1,
                weight: 1,
                checkpoint: ckpt(vec![4.0, 8.0], 80),
            },
        ];
        let merged = merge_round(&recipient, &contributions).unwrap();
        assert_eq!(merged.params, vec![3.0, 6.0]);
        assert!(merged.adam.slots.is_empty(), "moments must be cleared");
        assert_eq!(merged.steps, 120, "most-trained contributor wins");
        // Everything else is the recipient's own bookkeeping.
        assert_eq!(merged.per_max_priority, recipient.per_max_priority);
        // The merged checkpoint still round-trips the wire format.
        decode_payload(&encode_checkpoint(&merged)).unwrap();
    }

    /// A small fleet member after `steps` gradient steps on seeded
    /// transitions, so its checkpoint carries Adam moments and priorities.
    fn trained_checkpoint(seed: u64, steps: usize) -> MaBdqCheckpoint {
        use crate::{MaBdq, MaBdqConfig, MultiTransition};
        let mut agent = MaBdq::new(MaBdqConfig {
            agents: 2,
            state_dim: 3,
            branches: vec![4, 3],
            trunk_hidden: vec![16, 12],
            head_hidden: 8,
            batch_size: 8,
            buffer_capacity: 256,
            seed,
            ..MaBdqConfig::default()
        })
        .unwrap();
        let mut rng = Xoshiro256::seed_from_u64(seed);
        for _ in 0..48 {
            let mut state = || random_params(&mut rng, 3);
            let states = vec![state(), state()];
            let next_states = vec![state(), state()];
            agent
                .observe(MultiTransition {
                    states,
                    actions: vec![vec![1, 2], vec![3, 0]],
                    rewards: vec![rng.next_f64() as f32, -(rng.next_f64() as f32)],
                    next_states,
                })
                .unwrap();
        }
        for _ in 0..steps {
            agent.train_step().unwrap();
        }
        agent.save_checkpoint()
    }

    #[test]
    fn weights_only_payloads_merge_exactly_like_full_checkpoints() {
        let recipient = trained_checkpoint(1, 5);
        let donors = [trained_checkpoint(2, 30), trained_checkpoint(3, 20)];
        assert!(!donors[0].adam.slots.is_empty() && !donors[0].priorities.is_empty());
        let contributions = |wire: &dyn Fn(&MaBdqCheckpoint) -> MaBdqCheckpoint| {
            donors
                .iter()
                .enumerate()
                .map(|(n, c)| Contribution {
                    contributor: n,
                    weight: [46_800, 21_600][n],
                    checkpoint: wire(c),
                })
                .collect::<Vec<_>>()
        };
        let full = merge_round(&recipient, &contributions(&|c| c.clone())).unwrap();
        let slim = merge_round(
            &recipient,
            &contributions(&|c| {
                decode_payload(&encode_checkpoint(&weights_only(c.clone()))).unwrap()
            }),
        )
        .unwrap();
        let bits = |c: &MaBdqCheckpoint| c.params.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&slim), bits(&full));
        assert_eq!(slim.steps, full.steps);
        assert_eq!(slim.steps, 30);
        for donor in &donors {
            let slim_len = encode_checkpoint(&weights_only(donor.clone())).len();
            let full_len = encode_checkpoint(donor).len();
            assert!(
                2 * slim_len < full_len,
                "weights-only frame {slim_len} B vs full {full_len} B"
            );
        }
    }

    #[test]
    fn merge_round_shape_checks_against_recipient() {
        let recipient = ckpt(vec![0.0, 0.0], 0);
        let mut foreign = ckpt(vec![1.0, 2.0], 5);
        foreign.head_hidden = 9;
        let contributions = vec![Contribution {
            contributor: 0,
            weight: 1,
            checkpoint: foreign,
        }];
        assert!(matches!(
            merge_round(&recipient, &contributions),
            Err(FedError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn errors_display_and_are_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<FedError>();
        for e in [
            FedError::InvalidConfig { detail: "a".into() },
            FedError::CorruptPayload { detail: "b".into() },
            FedError::ShapeMismatch { detail: "c".into() },
            FedError::NonFinitePayload { detail: "d".into() },
            FedError::DivergentPayload { detail: "e".into() },
            FedError::QuarantinedContributor { frozen_agents: 1 },
            FedError::QuorumNotMet { got: 1, need: 2 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
