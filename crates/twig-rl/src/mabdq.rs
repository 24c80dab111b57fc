use crate::checkpoint::{MomentSlot, Moments};
use crate::per::{PerBatch, Priorities};
use crate::slab::TransitionSlab;
use crate::{MaBdqCheckpoint, RlError};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use twig_nn::{Adam, Dropout, Mlp, Pass, QuantizedMlp, Relu, Tape, Tensor};
use twig_stats::helper::{two_cpus, Finished, Helper, Job};
use twig_stats::rng::{Rng, Xoshiro256};
use twig_telemetry::Telemetry;

/// Configuration of a [`MaBdq`] agent.
///
/// [`MaBdqConfig::paper`] reproduces Section IV exactly (512/256 trunk,
/// 128-unit branch layers, dropout 0.5, Adam lr 0.0025, batch 64, γ 0.99,
/// target sync every 150 steps, PER 10⁶/α 0.6/β 0.4 → 1). The `Default`
/// instance keeps the same learning hyper-parameters but a smaller network
/// and milder dropout, which trains orders of magnitude faster at the same
/// qualitative behaviour — the experiment harness notes wherever it relies
/// on this.
#[derive(Debug, Clone, PartialEq)]
pub struct MaBdqConfig {
    /// Number of learning agents (colocated services), `K`.
    pub agents: usize,
    /// State dimensionality per agent (11 PMCs for Twig).
    pub state_dim: usize,
    /// Discrete action count per branch (e.g. `[18, 9]`: cores × DVFS).
    pub branches: Vec<usize>,
    /// Hidden-layer widths of the shared representation trunk.
    pub trunk_hidden: Vec<usize>,
    /// Hidden width of each value/advantage head.
    pub head_hidden: usize,
    /// Dropout probability after each fully connected layer.
    pub dropout: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// Minibatch size.
    pub batch_size: usize,
    /// Steps between target-network synchronisations.
    pub target_update_every: u64,
    /// Prioritised-replay capacity.
    pub buffer_capacity: usize,
    /// PER priority exponent α.
    pub per_alpha: f64,
    /// RNG seed.
    pub seed: u64,
    /// Per-agent divergence quarantine (disabled by default; see
    /// [`QuarantineConfig`]).
    pub quarantine: QuarantineConfig,
}

impl Default for MaBdqConfig {
    fn default() -> Self {
        MaBdqConfig {
            agents: 1,
            state_dim: 11,
            branches: vec![18, 9],
            trunk_hidden: vec![96, 64],
            head_hidden: 48,
            dropout: 0.05,
            lr: 0.0025,
            gamma: 0.99,
            batch_size: 64,
            target_update_every: 150,
            buffer_capacity: 1_000_000,
            per_alpha: 0.6,
            seed: 0,
            quarantine: QuarantineConfig::default(),
        }
    }
}

impl MaBdqConfig {
    /// The exact architecture and hyper-parameters of Section IV.
    pub fn paper() -> Self {
        MaBdqConfig {
            trunk_hidden: vec![512, 256],
            head_hidden: 128,
            dropout: 0.5,
            ..Self::default()
        }
    }

    pub(crate) fn validate(&self) -> Result<(), RlError> {
        let fail = |detail: String| Err(RlError::InvalidConfig { detail });
        if self.agents == 0 {
            return fail("zero agents".into());
        }
        if self.state_dim == 0 {
            return fail("zero state dim".into());
        }
        if self.branches.is_empty() || self.branches.contains(&0) {
            return fail(format!("branches {:?}", self.branches));
        }
        // A replay record stores a branch index as a `u16`.
        if self.branches.iter().any(|&n| n > 1 << 16) {
            return fail(format!("branches {:?} (at most 65536 each)", self.branches));
        }
        if self.trunk_hidden.is_empty() || self.trunk_hidden.contains(&0) {
            return fail(format!("trunk hidden {:?}", self.trunk_hidden));
        }
        if self.head_hidden == 0 || self.batch_size == 0 || self.buffer_capacity == 0 {
            return fail("zero head width, batch size or buffer capacity".into());
        }
        // A replay record names its orphan row in a `u32`.
        if u32::try_from(self.buffer_capacity).is_err() {
            return fail(format!(
                "buffer capacity {} (at most 2^32 - 1)",
                self.buffer_capacity
            ));
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return fail(format!("dropout {}", self.dropout));
        }
        if !(0.0..=1.0).contains(&self.gamma) {
            return fail(format!("gamma {}", self.gamma));
        }
        self.quarantine.validate()?;
        Ok(())
    }
}

/// PER importance-sampling exponent β at step 0 (Section IV: β anneals
/// from 0.4 to 1).
pub(crate) const PER_BETA0: f64 = 0.4;
/// Sampling steps over which β anneals to 1.
pub(crate) const PER_BETA_STEPS: u64 = 100_000;
/// Global gradient-norm clip of each train step.
const GRAD_CLIP: f32 = 10.0;

/// Per-agent divergence quarantine — the multi-agent analogue of the
/// governor's fallback. Each agent's batch-mean |TD error| and value-head
/// gradient norm are tracked against EWMA baselines; when a signal goes
/// non-finite (or, after warm-up, blows past `trip_multiple` × its
/// baseline), that agent's value head is rolled back to its last-known-good
/// snapshot and its learning is frozen for `probation_steps` train calls
/// while the other K−1 agents keep training. After probation the agent is
/// re-admitted with fresh baselines and a fresh snapshot.
///
/// Disabled by default. While no agent is quarantined the detector only
/// reads already-computed quantities — it draws no randomness and performs
/// no extra float operations in the gradient path, so learning trajectories
/// are bit-identical to a run without it.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineConfig {
    /// Master switch.
    pub enabled: bool,
    /// Trip when a signal exceeds this multiple of its EWMA baseline.
    pub trip_multiple: f64,
    /// Baseline samples required before the multiple test arms
    /// (non-finite or overflow-scale signals trip immediately regardless).
    pub warmup_steps: u64,
    /// Train calls an offending agent stays frozen before re-admission.
    pub probation_steps: u64,
    /// Healthy train calls between last-known-good snapshots.
    pub snapshot_every: u64,
}

impl Default for QuarantineConfig {
    fn default() -> Self {
        QuarantineConfig {
            enabled: false,
            trip_multiple: 8.0,
            warmup_steps: 100,
            probation_steps: 200,
            snapshot_every: 50,
        }
    }
}

impl QuarantineConfig {
    /// A copy of `self` with the master switch on.
    pub fn armed(mut self) -> Self {
        self.enabled = true;
        self
    }

    fn validate(&self) -> Result<(), RlError> {
        if !self.enabled {
            return Ok(());
        }
        let fail = |detail: String| Err(RlError::InvalidConfig { detail });
        if !self.trip_multiple.is_finite() || self.trip_multiple <= 1.0 {
            return fail(format!("quarantine trip multiple {}", self.trip_multiple));
        }
        if self.probation_steps == 0 || self.snapshot_every == 0 {
            return fail("quarantine probation/snapshot interval must be positive".into());
        }
        Ok(())
    }
}

/// Heap bytes a [`MaBdq`] holds besides its replay buffer, by owner (see
/// [`MaBdq::learner_memory`]); each counted at allocated capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LearnerMemory {
    /// The online and target networks: weights, and the online network's
    /// gradients once it has trained.
    pub networks: usize,
    /// The optimiser's two moments per trained parameter.
    pub optimiser: usize,
    /// The gradient step's working memory on the learner's thread: sampled
    /// batch, packed states, targets, the evaluation of the next states,
    /// tapes, gradients.
    pub step: usize,
    /// The helper thread's share of that working memory, with its copies of
    /// the advantage heads; 0 without a helper (one CPU, or `K = 1`).
    pub helper: usize,
    /// The decide paths' working memory and last Q-values, plus the
    /// fixed-point snapshot once
    /// [`refresh_quantized`](MaBdq::refresh_quantized) has built it.
    pub decide: usize,
    /// The quarantine guards and their last-known-good value heads.
    pub guards: usize,
}

impl LearnerMemory {
    /// The sum of the parts: [`MaBdq::learner_bytes`].
    pub fn total(&self) -> usize {
        self.networks + self.optimiser + self.step + self.helper + self.decide + self.guards
    }
}

twig_telemetry::stats! {
    /// Lifetime learner counters, see [`MaBdq::learner_stats`]. Every field
    /// is mirrored into telemetry under the matching `rl.*` counter.
    pub struct LearnerStats {
        /// Completed gradient steps.
        steps => "rl.train_steps",
        /// Gradient steps skipped by the NaN guard.
        skipped_steps => "rl.skipped_steps",
        /// Transitions refused for a non-finite state or reward.
        nonfinite_rejected => "rl.nonfinite_rejected",
        /// Gradient steps whose prologue ran ahead, during the epoch that
        /// produced their newest transition (see [`MaBdq::prepare_step`]).
        prologues_ahead => "rl.prologues_ahead",
        /// Prologues run ahead and then not used, because something other
        /// than the pictured transition and train step came next.
        prologues_discarded => "rl.prologues_discarded",
        /// Minibatch rows of prologues run ahead whose targets were
        /// recomputed once the newest transition's reward and next state
        /// were known.
        rows_recomputed => "rl.rows_recomputed",
    }
}

twig_telemetry::stats! {
    /// Aggregate quarantine counters, see [`MaBdq::quarantine_stats`].
    /// Every counter is mirrored into telemetry under the matching
    /// `quarantine.*` name.
    pub struct QuarantineStats {
        /// Divergence trips (rollback + freeze events) across all agents.
        trips => "quarantine.trips",
        /// Agents re-admitted after serving probation.
        readmissions => "quarantine.readmitted",
        plain {
            /// Agents currently frozen.
            frozen_agents: usize,
        }
    }
}

/// A TD error at or beyond this magnitude would overflow the f32 squared
/// loss, so it trips quarantine immediately even before baseline warm-up.
const QUARANTINE_HARD_TD_LIMIT: f64 = 1e18;
/// Baselines never shrink below this floor when forming trip thresholds, so
/// a near-zero warm-up baseline cannot make ordinary noise look divergent.
const QUARANTINE_BASELINE_FLOOR: f64 = 1e-8;
/// EWMA smoothing factor of the quarantine baselines.
const QUARANTINE_BASELINE_ALPHA: f64 = 0.05;

/// Per-agent divergence-detection state (only populated while quarantine is
/// enabled).
#[derive(Debug, Clone)]
struct AgentGuard {
    /// EWMA of the agent's batch-mean |TD error|.
    td_baseline: f64,
    /// EWMA of the agent's value-head gradient norm.
    grad_baseline: f64,
    /// Healthy samples folded into the baselines so far.
    baseline_samples: u64,
    /// Train-clock value at which probation ends; 0 = not frozen.
    frozen_until: u64,
    /// Last-known-good flat value-head parameters.
    snapshot: Vec<f32>,
    /// Healthy train calls since the snapshot was refreshed.
    snapshot_age: u64,
}

/// One multi-agent transition: everything all `K` agents observed and did in
/// one decision epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTransition {
    /// Per-agent state at decision time (`K × state_dim`).
    pub states: Vec<Vec<f32>>,
    /// Per-agent, per-branch action indices (`K × D`).
    pub actions: Vec<Vec<usize>>,
    /// Per-agent reward (`K`).
    pub rewards: Vec<f32>,
    /// Per-agent next state (`K × state_dim`).
    pub next_states: Vec<Vec<f32>>,
}

/// Diagnostics of one gradient step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainStats {
    /// Weighted TD loss of the minibatch.
    pub loss: f32,
    /// Mean absolute TD error (fed back as PER priority).
    pub mean_abs_td: f32,
    /// Global gradient norm before clipping.
    pub grad_norm: f32,
    /// `true` when the step was skipped because the loss or gradients were
    /// non-finite (no weights were updated).
    pub skipped: bool,
}

/// Progress of a resumable gradient step that runs one agent's head pass
/// per call (see [`MaBdq::train_step_budgeted`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetedProgress {
    /// The replay buffer holds fewer than `batch_size` transitions; no step
    /// was started.
    NotReady,
    /// One agent's head pass ran and others are left; call again to
    /// continue the step.
    InProgress {
        /// Agents whose head passes have completed so far.
        agents_done: usize,
        /// Total agents in the step.
        agents_total: usize,
    },
    /// The step completed (weights applied, or skipped by the NaN guard)
    /// with these diagnostics.
    Done(TrainStats),
}

/// The networks: a shared trunk, one state-value head per agent, and one
/// advantage head per branch whose weights are shared across agents
/// (Section III-A). Parameters only (and, for the online network, their
/// gradients): every pass runs on a [`Tape`] the learner owns, so the
/// networks' own tapes stay empty.
#[derive(Debug, Clone)]
struct Net {
    trunk: Mlp,
    value_heads: Vec<Mlp>,
    adv_heads: Vec<Mlp>,
}

impl Net {
    /// Weights are drawn straight into arenas sized once, one per network.
    fn new(config: &MaBdqConfig, rng: &mut Xoshiro256) -> Self {
        let joint = config.agents * config.state_dim;
        let inputs = std::iter::once(joint).chain(config.trunk_hidden.iter().copied());
        let trunk_len = inputs
            .zip(&config.trunk_hidden)
            .map(|(i, &o)| Mlp::dense_len(i, o));
        let mut trunk = Mlp::with_capacity(trunk_len.sum());
        let mut prev = joint;
        for (i, &h) in config.trunk_hidden.iter().enumerate() {
            trunk = trunk
                .dense(prev, h, rng)
                .push(Relu::new())
                .push(Dropout::new(
                    config.dropout,
                    config.seed.wrapping_add(i as u64),
                ));
            prev = h;
        }
        let head_input = prev + config.state_dim;
        let hidden = config.head_hidden;
        let head = |out: usize, rng: &mut Xoshiro256, seed: u64| {
            Mlp::with_capacity(Mlp::dense_len(head_input, hidden) + Mlp::dense_len(hidden, out))
                .dense(head_input, hidden, rng)
                .push(Relu::new())
                .push(Dropout::new(config.dropout, seed))
                .dense(hidden, out, rng)
        };
        let value_heads = (0..config.agents)
            .map(|k| head(1, rng, config.seed.wrapping_add(100 + k as u64)))
            .collect();
        let adv_heads = config
            .branches
            .iter()
            .enumerate()
            .map(|(d, &n)| head(n, rng, config.seed.wrapping_add(200 + d as u64)))
            .collect();
        Net {
            trunk,
            value_heads,
            adv_heads,
        }
    }

    fn zero_grads(&mut self) {
        self.mlps_mut().for_each(Mlp::zero_grads);
    }

    /// The trunk's squared norm plus the heads' sum: the nesting of sums
    /// global-norm clipping has always seen, bit for bit.
    fn grad_sq_norm(&self) -> f32 {
        self.trunk.grad_sq_norm()
            + self
                .value_heads
                .iter()
                .chain(self.adv_heads.iter())
                .map(Mlp::grad_sq_norm)
                .sum::<f32>()
    }

    fn scale_all_grads(&mut self, factor: f32) {
        self.mlps_mut().for_each(|m| m.scale_grads(factor));
    }

    fn copy_weights_from(&mut self, other: &Net) {
        for (dst, src) in self.mlps_mut().zip(other.mlps()) {
            dst.copy_weights_from(src).expect("same architecture");
        }
    }

    /// Trunk, value heads, advantage heads: the order parameters are
    /// flattened into a checkpoint and laid out in the optimiser's moments.
    fn mlps(&self) -> impl Iterator<Item = &Mlp> {
        std::iter::once(&self.trunk)
            .chain(&self.value_heads)
            .chain(&self.adv_heads)
    }

    fn mlps_mut(&mut self) -> impl Iterator<Item = &mut Mlp> {
        std::iter::once(&mut self.trunk)
            .chain(&mut self.value_heads)
            .chain(&mut self.adv_heads)
    }

    /// The arenas [`SplitAdam`]'s lower part steps: the trunk and the
    /// first `split` value heads.
    fn lower_mlps(&mut self, split: usize) -> impl Iterator<Item = &mut Mlp> {
        std::iter::once(&mut self.trunk).chain(&mut self.value_heads[..split])
    }

    /// The rest, the upper part's: value heads `split..` and the advantage
    /// heads.
    fn upper_mlps(&mut self, split: usize) -> impl Iterator<Item = &mut Mlp> {
        self.value_heads[split..]
            .iter_mut()
            .chain(&mut self.adv_heads)
    }

    fn param_count(&self) -> usize {
        self.mlps().map(Mlp::param_count).sum()
    }

    fn heap_bytes(&self) -> usize {
        (self.value_heads.capacity() + self.adv_heads.capacity()) * std::mem::size_of::<Mlp>()
            + self.mlps().map(Mlp::heap_bytes).sum::<usize>()
    }

    /// Evaluation-mode Q-values of every agent for a batch whose joint state
    /// is already packed into `x` (`B × K*state_dim`, agent `k` in columns
    /// `k*state_dim..`): [`eval_shared`](Self::eval_shared) into `shared`,
    /// then [`eval_heads`](Self::eval_heads) over all `K` agents, so `q[k][d]`
    /// is agent `k`'s `B × n_d` tensor. The decide paths' one pass over a
    /// one-row batch; every buffer is reused, so steady-state evaluation is
    /// allocation-free.
    ///
    /// Results are bit-identical to the per-agent reference
    /// ([`q_values_per_agent_into`](Self::q_values_per_agent_into)): the
    /// GEMM microkernel accumulates inner-index contributions per output
    /// element in ascending order from `+0.0` whatever tile a row lands in,
    /// a continued product is that same chain picked up where the prefix
    /// stored it, rows are fully independent, bias/ReLU/dueling arithmetic is
    /// per-row in the same order. For the same reasons a row's Q-values do
    /// not depend on which other agents' rows share its GEMMs, so the train
    /// step's one-agent-at-a-time calls of `eval_heads` produce these bits
    /// too. Evaluation reads the network and touches neither a dropout
    /// stream nor a gradient ([`Mlp::forward_batch`]), which is what lets
    /// decisions run between the chunks of a gradient step and two threads
    /// evaluate one network at once.
    fn q_values_fused_into(
        &self,
        x: &Tensor,
        state_dim: usize,
        (shared, work): (&mut Trunked, &mut EvalWork),
        q: &mut QValues,
    ) {
        self.eval_shared(x, &mut work.tape, shared);
        let agents = self.value_heads.len();
        self.eval_heads(x, 0..agents, state_dim, (shared, work), q);
    }

    /// The first stage of an evaluation of `x`, what every agent's heads
    /// read, into `out`: the trunk's output and, with `K > 1`, each
    /// advantage head's first-layer product over it (`out.prefixes[d]`,
    /// `B × head_hidden`, see [`Mlp::prefix_into`]). Every agent's head
    /// input is `[trunk_out | own state]` and the advantage heads' weights
    /// are shared across agents, so those columns go through the first layer
    /// once per batch row however many agents continue from them. With one
    /// agent nothing is shared and no prefix is built.
    fn eval_shared(&self, x: &Tensor, tape: &mut Tape, out: &mut Trunked) {
        let Trunked {
            trunk_out,
            prefixes,
        } = out;
        trunk_out.copy_from(self.trunk.forward_batch(tape, None, x));
        if self.value_heads.len() > 1 {
            prefixes.resize_with(self.adv_heads.len(), Tensor::default);
            for (head, prefix) in self.adv_heads.iter().zip(prefixes.iter_mut()) {
                head.prefix_into(trunk_out, prefix);
            }
        }
    }

    /// The second stage, for the agents in `agents` only, on what
    /// [`eval_shared`](Self::eval_shared) left in `shared` for the same `x`:
    /// `q[k − k0][d]` (`B × n_d`) is agent `k`'s Q-values on branch `d`,
    /// `k0 = agents.start`. [`eval_advantages`](Self::eval_advantages)
    /// first; value heads keep per-agent weights, so each is then a `B`-row
    /// forward over `[trunk_out | state_k]`, and the dueling combine turns
    /// each advantage row into Q-values in place.
    ///
    /// The range is the caller's to choose: the decide paths take every
    /// agent of a one-row batch, the train step's targets one agent of a
    /// `B`-row batch at a time, so no buffer of theirs has `K·B` rows.
    fn eval_heads(
        &self,
        x: &Tensor,
        agents: Range<usize>,
        state_dim: usize,
        (shared, work): (&Trunked, &mut EvalWork),
        q: &mut QValues,
    ) {
        self.eval_advantages(x, agents.clone(), state_dim, (shared, work), q);
        let batch = x.rows();
        let EvalWork {
            tape,
            input_k,
            v_all,
            ..
        } = work;
        v_all.clear();
        for k in agents {
            head_input_into(&shared.trunk_out, x, (k, state_dim), input_k);
            let v = self.value_heads[k].forward_batch(tape, None, input_k);
            v_all.extend((0..batch).map(|b| v[(b, 0)]));
        }
        for (j, branches) in q.iter_mut().enumerate() {
            for qd in branches.iter_mut() {
                let n = qd.cols() as f32;
                for b in 0..batch {
                    // Same arithmetic order as `dueling_combine_into`: the
                    // advantage row, then `V - mean(A)` added per element.
                    let qrow = qd.row_mut(b);
                    let mean: f32 = qrow.iter().sum::<f32>() / n;
                    let base = v_all[j * batch + b] - mean;
                    for x in qrow {
                        *x += base;
                    }
                }
            }
        }
    }

    /// The advantage half of [`eval_heads`](Self::eval_heads): `q[k −
    /// k0][d]` (`B × n_d`) is agent `k`'s advantages on branch `d`, and no
    /// value head runs. A dueling head's `Q = V + A − mean(A)` adds one
    /// number per row, so a row's greedy action is the first index of its
    /// largest advantage — which is all the double-DQN argmax reads. Each
    /// shared advantage head continues its prefix over the agents' own
    /// states, stacked `(k − k0)·B + b` into one `|agents|·B × state_dim`
    /// matrix — one register-tiled GEMM per branch per layer for the whole
    /// range. With one agent there is no prefix, and the head reads the
    /// agent's whole input `[trunk_out | state]`.
    fn eval_advantages(
        &self,
        x: &Tensor,
        agents: Range<usize>,
        state_dim: usize,
        (shared, work): (&Trunked, &mut EvalWork),
        q: &mut QValues,
    ) {
        let batch = x.rows();
        let shared_prefix = self.value_heads.len() > 1;
        let EvalWork {
            tape,
            input_k,
            stacked,
            ..
        } = work;
        if shared_prefix {
            stacked.resize_zeroed(agents.len() * batch, state_dim);
            for (j, k) in agents.clone().enumerate() {
                for b in 0..batch {
                    stacked
                        .row_mut(j * batch + b)
                        .copy_from_slice(&x.row(b)[k * state_dim..(k + 1) * state_dim]);
                }
            }
        } else {
            head_input_into(&shared.trunk_out, x, (agents.start, state_dim), input_k);
        }
        q.resize_with(agents.len(), Vec::new);
        for branches in q.iter_mut() {
            branches.resize_with(self.adv_heads.len(), Tensor::default);
        }
        for (d, head) in self.adv_heads.iter().enumerate() {
            let adv = if shared_prefix {
                head.forward_batch(tape, Some(&shared.prefixes[d]), stacked)
            } else {
                head.forward_batch(tape, None, input_k)
            };
            for (j, branches) in q.iter_mut().enumerate() {
                let qd = &mut branches[d];
                qd.resize_zeroed(batch, adv.cols());
                for b in 0..batch {
                    qd.row_mut(b).copy_from_slice(adv.row(j * batch + b));
                }
            }
        }
    }

    /// Fully per-agent evaluation reference for the fused path: every agent
    /// forwards the shared trunk *itself* (`K` trunk passes over the joint
    /// state instead of one) and runs its own single-batch head forwards —
    /// the naive loop a per-agent implementation of the paper's
    /// architecture would execute, with no cross-agent reuse at all.
    /// Deterministic eval forwards make the recomputed trunk rows
    /// bit-identical, so results match
    /// [`q_values_fused_into`](Self::q_values_fused_into) bit-for-bit; the
    /// twin-run tests assert
    /// it and `bench_decide` measures what the fusion buys against it.
    /// `shared.trunk_out` is its trunk buffer.
    fn q_values_per_agent_into(
        &self,
        x: &Tensor,
        state_dim: usize,
        (shared, work): (&mut Trunked, &mut EvalWork),
        q: &mut QValues,
    ) {
        let num_branches = self.adv_heads.len();
        let trunk_out = &mut shared.trunk_out;
        let EvalWork {
            tape,
            input_k,
            v_all,
            ..
        } = work;
        q.resize_with(self.value_heads.len(), Vec::new);
        for (k, (vh, branches)) in self.value_heads.iter().zip(q.iter_mut()).enumerate() {
            // The per-agent trunk pass this loop exists to measure: same
            // input, same weights, stateless eval forward — identical bits
            // every iteration.
            trunk_out.copy_from(self.trunk.forward_batch(tape, None, x));
            head_input_into(trunk_out, x, (k, state_dim), input_k);
            v_all.clear();
            v_all.extend_from_slice(vh.forward_batch(tape, None, input_k).as_slice());
            branches.resize_with(num_branches, Tensor::default);
            for (head, qd) in self.adv_heads.iter().zip(branches.iter_mut()) {
                let adv = head.forward_batch(tape, None, input_k);
                dueling_combine_into(v_all, adv, qd);
            }
        }
    }
}

/// `q[j][d]`: the Q-values on branch `d` (`B × n_d`) of the `j`-th agent
/// evaluated, as [`Net::eval_heads`] and [`Net::q_values_per_agent_into`]
/// leave them (agent `j` itself when all `K` are).
type QValues = Vec<Vec<Tensor>>;

/// The first stage of an evaluation of a batch ([`Net::eval_shared`]), what
/// every agent's heads read: the trunk's output (`B × trunk_dim`) and, with
/// `K > 1`, each advantage head's first-layer product over it (`B ×
/// head_hidden` per branch), shared by every agent's rows.
#[derive(Debug, Clone, Default)]
struct Trunked {
    trunk_out: Tensor,
    prefixes: Vec<Tensor>,
}

impl Trunked {
    fn heap_bytes(&self) -> usize {
        self.trunk_out.heap_bytes()
            + tensors_heap_bytes(&self.prefixes)
            + self.prefixes.capacity() * std::mem::size_of::<Tensor>()
    }
}

/// Working memory of an evaluation of a [`Net`] past its first stage: the
/// tape its forwards run on and the intermediates between them. Nothing in
/// it outlives the call — the results are the [`QValues`] — so the online
/// and the target network evaluate the same batch on the same `EvalWork`,
/// one after the other.
#[derive(Debug, Clone, Default)]
struct EvalWork {
    /// The trunk, then value heads, then advantage heads, each finished
    /// (and its output copied out or consumed) before the next begins.
    tape: Tape,
    /// One agent's head input `[trunk_out | state_k]`.
    input_k: Tensor,
    /// Fused path, `K > 1`: the evaluated agents' own states stacked
    /// (`|agents|·B × state_dim`, row `(k − k0)·B + b` = `state_k(b)`).
    stacked: Tensor,
    /// State values: fused path, the evaluated agents', flattened
    /// `(k − k0)·B + b`; per-agent path, the current agent's.
    v_all: Vec<f32>,
}

impl EvalWork {
    fn heap_bytes(&self) -> usize {
        self.tape.heap_bytes()
            + tensors_heap_bytes([&self.input_k, &self.stacked])
            + self.v_all.capacity() * std::mem::size_of::<f32>()
    }
}

/// Agent `k`'s head input `[trunk_out | state_k]` (`B × (trunk_dim +
/// state_dim)`), its state read from columns `k*state_dim..` of the joint
/// batch `x`.
fn head_input_into(
    trunk_out: &Tensor,
    x: &Tensor,
    (k, state_dim): (usize, usize),
    out: &mut Tensor,
) {
    let trunk_dim = trunk_out.cols();
    out.resize_zeroed(x.rows(), trunk_dim + state_dim);
    for b in 0..x.rows() {
        let row = out.row_mut(b);
        row[..trunk_dim].copy_from_slice(trunk_out.row(b));
        row[trunk_dim..].copy_from_slice(&x.row(b)[k * state_dim..(k + 1) * state_dim]);
    }
}

/// Copies `K` per-agent vectors into one joint row, agent `k` at
/// `k * len..`.
fn pack_joint(parts: &[Vec<f32>], row: &mut [f32]) {
    for (dst, part) in row
        .chunks_exact_mut(row.len() / parts.len().max(1))
        .zip(parts)
    {
        dst.copy_from_slice(part);
    }
}

/// Heap bytes of the tensors' buffers (not of whatever holds the tensors).
fn tensors_heap_bytes<'a>(tensors: impl IntoIterator<Item = &'a Tensor>) -> usize {
    tensors.into_iter().map(Tensor::heap_bytes).sum()
}

fn q_values_heap_bytes(q: &QValues) -> usize {
    let branches =
        |b: &Vec<Tensor>| b.capacity() * std::mem::size_of::<Tensor>() + tensors_heap_bytes(b);
    q.capacity() * std::mem::size_of::<Vec<Tensor>>() + q.iter().map(branches).sum::<usize>()
}

/// Heap bytes of an `Arc`'s block: its two counts and the value.
fn arc_block_bytes<T>() -> usize {
    2 * std::mem::size_of::<usize>() + std::mem::size_of::<T>()
}

/// `Q(a) = V + (A(a) − mean_a A(a))` per batch row; `v` holds one state
/// value per row.
fn dueling_combine_into(v: &[f32], adv: &Tensor, q: &mut Tensor) {
    q.copy_from(adv);
    let n = adv.cols() as f32;
    for (b, v) in v.iter().enumerate() {
        let mean: f32 = adv.row(b).iter().sum::<f32>() / n;
        let base = v - mean;
        for x in q.row_mut(b) {
            *x += base;
        }
    }
}

/// The paper's multi-agent branching dueling Q-network (Section III-A).
///
/// One instance manages all `K` colocated services: each agent contributes
/// an 11-dimensional PMC state, the concatenation feeds a shared
/// representation, per-agent state-value heads and per-branch advantage
/// heads (shared across agents) produce per-agent per-branch Q-values, and
/// training applies the paper's gradient rescaling — 1/K into the deepest
/// advantage layers, 1/D into the shared representation.
///
/// See the crate-level example for usage; the single-agent case (Twig-S) is
/// `agents = 1`.
#[derive(Debug, Clone)]
pub struct MaBdq {
    config: MaBdqConfig,
    /// Shared with the helper's job while a task or a prologue run ahead
    /// reads it; every write runs once the helper has let go, so
    /// `Arc::make_mut` writes in place.
    online: Arc<Net>,
    /// Only a target sync, a checkpoint restore and a transfer reset write
    /// it. A gradient step's two threads read it at once, and a clone
    /// shares it until one of them writes.
    target: Arc<Net>,
    adam: SplitAdam,
    /// The replay buffer's index: slot assignment and sampling weights.
    /// Shared like `online`, with a prologue run ahead.
    priorities: Arc<Priorities>,
    /// The replay buffer's storage: the transition in each slot. Shared
    /// like `priorities`.
    slab: Arc<TransitionSlab>,
    rng: Xoshiro256,
    stats: LearnerStats,
    telemetry: Telemetry,
    scratch: DecideScratch,
    step: StepState,
    helping: Helping,
    ahead: Ahead,
    /// Per-agent quarantine guards; empty unless quarantine is enabled.
    guards: Vec<AgentGuard>,
    /// Trips and re-admissions; `frozen_agents` is counted from `guards`
    /// on read.
    quarantine: QuarantineStats,
    /// Fixed-point snapshot of the online net, once
    /// [`refresh_quantized`](Self::refresh_quantized) has built it. Only the
    /// `rl.select_quantized_p50_us` ledger probe reads it.
    quantized: Option<Box<QuantizedNet>>,
}

/// Fixed-point (i16 weights, i32 accumulate) snapshot of [`Net`]'s trunk and
/// advantage heads plus the scratch its forward passes reuse, behind
/// [`MaBdq::select_actions_quantized_into`].
#[derive(Debug, Clone)]
struct QuantizedNet {
    trunk: QuantizedMlp,
    adv_heads: Vec<QuantizedMlp>,
    // Scratch tensors (sized on first use, reused afterwards).
    trunk_out: Tensor,
    input_k: Tensor,
    adv: Tensor,
}

impl QuantizedNet {
    /// Heap bytes held, the box included.
    fn heap_bytes(&self) -> usize {
        let tensors = [&self.trunk_out, &self.input_k, &self.adv];
        std::mem::size_of::<Self>()
            + self.adv_heads.capacity() * std::mem::size_of::<QuantizedMlp>()
            + self.trunk.heap_bytes()
            + self
                .adv_heads
                .iter()
                .map(QuantizedMlp::heap_bytes)
                .sum::<usize>()
            + tensors.iter().map(|t| t.heap_bytes()).sum::<usize>()
    }

    fn from_net(net: &Net) -> Result<Self, RlError> {
        let quantize = |m: &Mlp| {
            m.quantize().map_err(|e| RlError::DimensionMismatch {
                detail: e.to_string(),
            })
        };
        Ok(QuantizedNet {
            trunk: quantize(&net.trunk)?,
            adv_heads: net
                .adv_heads
                .iter()
                .map(quantize)
                .collect::<Result<_, _>>()?,
            trunk_out: Tensor::default(),
            input_k: Tensor::default(),
            adv: Tensor::default(),
        })
    }
}

/// Preallocated working memory of the decide paths. Sized on first use and
/// reused afterwards, so steady-state [`MaBdq::select_actions_into`] and
/// [`MaBdq::q_values_into`] calls perform no heap allocation. Separate from
/// [`StepState`] so a decision between two chunks of a gradient step cannot
/// overwrite anything the step still reads. Holds no learner state.
#[derive(Debug, Clone, Default)]
struct DecideScratch {
    /// The joint state being decided on (`1 × K*state_dim`).
    x: Tensor,
    /// The first evaluation stage of `x`.
    shared: Trunked,
    /// Working memory of the one-row evaluation. Its tape is the decide
    /// paths' own: a decision may run between the chunks of a budgeted step,
    /// while the step's tapes hold what its epilogue still reads.
    eval: EvalWork,
    /// Online-network evaluations of `x`.
    q_eval: QValues,
}

impl DecideScratch {
    fn heap_bytes(&self) -> usize {
        self.x.heap_bytes()
            + self.shared.heap_bytes()
            + self.eval.heap_bytes()
            + q_values_heap_bytes(&self.q_eval)
    }
}

/// The dimensions a gradient step's per-agent work reads, copied out of the
/// configuration (the helper's job holds its own).
#[derive(Debug, Clone, Copy)]
struct Shape {
    agents: usize,
    state_dim: usize,
    batch: usize,
    /// Branches `D`.
    branches: usize,
    gamma: f32,
    quarantine: bool,
}

impl Shape {
    fn of(config: &MaBdqConfig) -> Self {
        Shape {
            agents: config.agents,
            state_dim: config.state_dim,
            batch: config.batch_size,
            branches: config.branches.len(),
            gamma: config.gamma,
            quarantine: config.quarantine.enabled,
        }
    }
}

/// What a gradient step's per-agent work reads: the minibatch packed out of
/// the replay buffer, the first evaluation stage of its next states, the
/// targets and the train-mode trunk output. Between the step's parallel
/// parts the calling thread fills it; during them both threads read it and
/// neither writes. It is shared through an `Arc` that the helper's job
/// holds only while a task runs, so `Arc::make_mut` refills it in place.
///
/// Between the chunks of a budgeted step the caller may decide and observe
/// (which may overwrite sampled replay slots), so the step owns copies of
/// everything it still needs.
#[derive(Debug, Clone, Default)]
struct Sample {
    /// PER sample (indices for the priority write-back, importance weights).
    batch: PerBatch,
    /// Joint current-state batch (`B × K*state_dim`).
    x: Tensor,
    /// Joint next-state batch.
    x_next: Tensor,
    /// Sampled actions, flattened `(b * agents + k) * num_branches + d`.
    actions: Vec<u16>,
    /// Sampled rewards, flattened `b * agents + k`.
    rewards: Vec<f32>,
    /// TD targets, flattened `b * agents + k`.
    targets: Vec<f32>,
    /// A first evaluation stage ([`Trunked`]), three in turn: the online
    /// network's of `x_next` while the greedy actions are taken, the target
    /// network's of `x_next` while the targets are, then the online
    /// network's train-mode trunk output for `x` with, for `K > 1`, each
    /// advantage head's first-layer product over it (weights are fixed
    /// until the epilogue), which every agent's train-mode forward of that
    /// head continues from.
    stage: Trunked,
    /// A prologue run ahead ([`MaBdq::prepare_step`]) computes the first two
    /// stages before the targets, and keeps them here: the online
    /// network's, then the target network's. Empty for a learner that never
    /// runs one.
    next_stages: [Trunked; 2],
}

impl Sample {
    fn heap_bytes(&self) -> usize {
        let PerBatch { indices, weights } = &self.batch;
        indices.capacity() * std::mem::size_of::<usize>()
            + (weights.capacity() + self.rewards.capacity() + self.targets.capacity())
                * std::mem::size_of::<f32>()
            + self.actions.capacity() * std::mem::size_of::<u16>()
            + tensors_heap_bytes([&self.x, &self.x_next])
            + self.stage.heap_bytes()
            + self
                .next_stages
                .iter()
                .map(Trunked::heap_bytes)
                .sum::<usize>()
    }

    /// The online (`i = 0`) or target (`1`) network's first stage of
    /// `x_next`: in `next_stages` when it was computed `ahead`, else in
    /// `stage`.
    fn next_stage(&self, i: usize, ahead: bool) -> &Trunked {
        if ahead {
            &self.next_stages[i]
        } else {
            &self.stage
        }
    }

    /// Packs the minibatch `batch.indices` names out of the replay buffer.
    /// With `pending = Some((slot, states, actions))`, a row of `slot` is
    /// the transition a push of `slot` is about to store: `states` and
    /// `actions` (joint, as the buffer keeps them), and zeros for the reward
    /// and next state nobody knows yet.
    fn gather(&mut self, slab: &TransitionSlab, pending: Option<(usize, &[f32], &[u16])>) {
        let (batch, joint) = (self.batch.indices.len(), slab.joint());
        self.x.resize_zeroed(batch, joint);
        self.x_next.resize_zeroed(batch, joint);
        self.actions.clear();
        self.rewards.clear();
        for (b, &idx) in self.batch.indices.iter().enumerate() {
            match pending {
                Some((slot, states, actions)) if idx == slot => {
                    self.x.row_mut(b).copy_from_slice(states);
                    self.actions.extend_from_slice(actions);
                    let rewards = self.rewards.len() + slab.agents();
                    self.rewards.resize(rewards, 0.0);
                }
                _ => {
                    self.x.row_mut(b).copy_from_slice(slab.states(idx));
                    self.x_next
                        .row_mut(b)
                        .copy_from_slice(slab.next_states(idx));
                    self.actions.extend_from_slice(slab.actions(idx));
                    self.rewards.extend_from_slice(slab.rewards(idx));
                }
            }
        }
    }
}

/// One thread's working memory for the per-agent parts of a gradient step:
/// the double-DQN targets and the head passes. The calling thread's lane is
/// in [`StepState`], the helper's in its [`Share`], and both run the same
/// code on it.
#[derive(Debug, Clone, Default)]
struct Lane {
    /// For the targets, the evaluations of `x_next`. For a head pass, its
    /// tape runs the advantage heads, each forward then backward, and
    /// `input_k` holds the value head's input.
    eval: EvalWork,
    /// One agent's evaluation of `x_next` (`D` tensors of `B × n_d`): the
    /// online network's advantages, then the target network's Q-values.
    q_agent: QValues,
    /// The online network's greedy action on `x_next` (double DQN) for this
    /// lane's agents: `(k * num_branches + d) * B + b`.
    a_star: Vec<u16>,
    /// This lane's agents' TD targets, `b * agents + k`.
    targets: Vec<f32>,
    /// The current agent's value head: forward at the top of its head pass,
    /// backward at the bottom (it needs the gradient every advantage head
    /// contributes to), which is why it cannot be `eval.tape`.
    value_tape: Tape,
    // Head-pass temporaries.
    agent_state: Tensor,
    v_grad: Tensor,
    adv_grad: Tensor,
}

impl Lane {
    fn heap_bytes(&self) -> usize {
        self.eval.heap_bytes()
            + q_values_heap_bytes(&self.q_agent)
            + self.a_star.capacity() * std::mem::size_of::<u16>()
            + self.targets.capacity() * std::mem::size_of::<f32>()
            + self.value_tape.heap_bytes()
            + tensors_heap_bytes([&self.agent_state, &self.v_grad, &self.adv_grad])
    }

    /// Agent `k`'s greedy action on every next state and branch under the
    /// online network, into its block of `a_star`. The argmax reads the
    /// advantages alone: the value head adds one number per row.
    fn greedy(&mut self, online: &Net, sample: &Sample, (k, ahead): (usize, bool), shape: Shape) {
        let (batch, block) = (shape.batch, shape.branches * shape.batch);
        let work = (sample.next_stage(0, ahead), &mut self.eval);
        online.eval_advantages(
            &sample.x_next,
            k..k + 1,
            shape.state_dim,
            work,
            &mut self.q_agent,
        );
        self.a_star.resize(shape.agents * block, 0);
        let chosen = &mut self.a_star[k * block..(k + 1) * block];
        for (qd, chosen) in self.q_agent[0].iter().zip(chosen.chunks_exact_mut(batch)) {
            for (b, a) in chosen.iter_mut().enumerate() {
                *a = u16::try_from(argmax(qd.row(b)))
                    .expect("validate keeps every branch within 2^16 actions");
            }
        }
    }

    /// Agent `k`'s share of `passes`, on the online and target networks.
    fn target_passes(
        &mut self,
        passes: Passes,
        (online, target): (&Net, &Net),
        sample: &Sample,
        k: usize,
        shape: Shape,
    ) {
        let ahead = passes == Passes::Ahead;
        if passes != Passes::Targets {
            self.greedy(online, sample, (k, ahead), shape);
        }
        if passes != Passes::Greedy {
            self.targets(target, sample, (k, ahead), shape);
        }
    }

    /// Agent `k`'s TD targets: its reward plus γ times the target network's
    /// Q-value at the greedy action, averaged over branches.
    fn targets(&mut self, target: &Net, sample: &Sample, (k, ahead): (usize, bool), shape: Shape) {
        let (agents, batch, block) = (shape.agents, shape.batch, shape.branches * shape.batch);
        let work = (sample.next_stage(1, ahead), &mut self.eval);
        target.eval_heads(
            &sample.x_next,
            k..k + 1,
            shape.state_dim,
            work,
            &mut self.q_agent,
        );
        self.targets.resize(batch * agents, 0.0);
        let chosen = &self.a_star[k * block..(k + 1) * block];
        for b in 0..batch {
            let mut acc = 0.0;
            for (d, qd) in self.q_agent[0].iter().enumerate() {
                acc += qd[(b, usize::from(chosen[d * batch + b]))];
            }
            let reward = sample.rewards[b * agents + k];
            self.targets[b * agents + k] = reward + shape.gamma * acc / shape.branches as f32;
        }
    }

    /// Agent `k`'s head pass: its value head `vh` and every advantage head
    /// forward (train mode) and backward on the sampled batch. The head
    /// gradients accumulate in the heads' own arenas; loss, |TD| and the
    /// gradients at the trunk's output go to `sums`. With `K > 1` an
    /// advantage head's backward stops at its first layer's output, and the
    /// gradient there goes to `sums` for the epilogue. Returns the agent's
    /// quarantine signals: its summed |TD| and its value head's squared
    /// gradient norm (zeros with quarantine off).
    fn head_pass(
        &mut self,
        (shape, sample, k): (Shape, &Sample, usize),
        vh: &mut Mlp,
        adv_heads: &mut [Mlp],
        sums: &mut impl Sums,
    ) -> (f64, f64) {
        let (batch, agents, branches, state_dim) =
            (shape.batch, shape.agents, shape.branches, shape.state_dim);
        let norm = (batch * agents * branches) as f32;
        let Lane {
            eval,
            value_tape,
            agent_state,
            v_grad,
            adv_grad,
            ..
        } = self;
        agent_state.resize_zeroed(batch, state_dim);
        for b in 0..batch {
            agent_state
                .row_mut(b)
                .copy_from_slice(&sample.x.row(b)[k * state_dim..(k + 1) * state_dim]);
        }
        let stage = &sample.stage;
        stage
            .trunk_out
            .concat_cols_into(agent_state, &mut eval.input_k)
            .expect("same batch");
        let v = vh.on(value_tape).forward_scratch(&eval.input_k, true);
        let trunk_dim = stage.trunk_out.cols();
        v_grad.resize_zeroed(batch, 1);
        let mut agent_td = 0.0;
        for (d, head) in adv_heads.iter_mut().enumerate() {
            let pass = head.on(&mut eval.tape);
            let adv = if agents > 1 {
                pass.forward_from_prefix_scratch(&stage.prefixes[d], agent_state, true)
            } else {
                pass.forward_scratch(&eval.input_k, true)
            };
            let n = adv.cols();
            adv_grad.resize_zeroed(batch, n);
            for b in 0..batch {
                let a = usize::from(sample.actions[(b * agents + k) * branches + d]);
                let row = adv.row(b);
                let mean: f32 = row.iter().sum::<f32>() / n as f32;
                let q = v[(b, 0)] + row[a] - mean;
                let delta = q - sample.targets[b * agents + k];
                let w = sample.batch.weights[b];
                let abs_td = (delta.abs() / (agents * branches) as f32) as f64;
                sums.td(b, abs_td, w * delta * delta / norm);
                if shape.quarantine {
                    agent_td += f64::from(delta.abs());
                }
                let g = 2.0 * w * delta / norm;
                let grow = adv_grad.row_mut(b);
                for (j, gj) in grow.iter_mut().enumerate() {
                    let indicator = if j == a { 1.0 } else { 0.0 };
                    *gj = g * (indicator - 1.0 / n as f32);
                }
                v_grad[(b, 0)] += g;
            }
            let pass = head.on(&mut eval.tape);
            if agents > 1 {
                sums.first_grad(d, pass.backward_from_prefix_scratch(adv_grad));
            } else {
                sums.trunk_grad(pass.backward_cols_scratch(adv_grad, trunk_dim));
            }
        }
        sums.trunk_grad(vh.on(value_tape).backward_cols_scratch(v_grad, trunk_dim));
        let v_sq_norm = if shape.quarantine {
            f64::from(vh.grad_sq_norm())
        } else {
            0.0
        };
        (agent_td, v_sq_norm)
    }
}

/// Where a head pass puts what it adds to the gradient step's sums over
/// agents: [`StepSums`] adds it on the spot, [`AgentSums`] records it
/// for the calling thread to add in agent order.
trait Sums {
    /// Row `b`'s share of the mean |TD| and its term of the loss.
    fn td(&mut self, b: usize, abs_td: f64, loss: f32);
    /// `K > 1`: branch `d`'s gradient at its first layer's output.
    fn first_grad(&mut self, d: usize, grad: &Tensor);
    /// A gradient at the trunk's output.
    fn trunk_grad(&mut self, grad: &Tensor);
}

/// The gradient step's sums over agents, each taken in agent order.
#[derive(Debug, Clone, Default)]
struct StepSums {
    /// Weighted TD loss.
    loss: f32,
    /// Per-sample mean |TD| fed back as priorities.
    abs_td: Vec<f64>,
    /// `K > 1`: per branch, the sum over the live agents' head passes of the
    /// advantage head's first-layer output gradient (`B × head_hidden`). The
    /// trunk side of that layer's backward is linear in it, so the epilogue
    /// runs it once per branch, not once per agent.
    adv_first_grad: Vec<Tensor>,
    /// Gradient at the trunk's output.
    trunk_grad: Tensor,
}

impl StepSums {
    fn heap_bytes(&self) -> usize {
        self.abs_td.capacity() * std::mem::size_of::<f64>()
            + self.trunk_grad.heap_bytes()
            + tensors_heap_bytes(&self.adv_first_grad)
            + self.adv_first_grad.capacity() * std::mem::size_of::<Tensor>()
    }
}

impl Sums for StepSums {
    fn td(&mut self, b: usize, abs_td: f64, loss: f32) {
        self.abs_td[b] += abs_td;
        self.loss += loss;
    }

    fn first_grad(&mut self, d: usize, grad: &Tensor) {
        self.adv_first_grad[d].add_assign(grad).expect("same shape");
    }

    fn trunk_grad(&mut self, grad: &Tensor) {
        self.trunk_grad.add_assign(grad).expect("same shape");
    }
}

/// What one agent's head pass on the helper adds to [`StepSums`], recorded
/// term by term. The helper runs only with `K > 1`, so a head pass records
/// `D` first-layer gradients and one trunk gradient, its value head's. The
/// calling thread adds it with [`replay`](Self::replay) in agent order,
/// after the agent before and before the agent after, so every sum sees its
/// terms in the order one thread would have added them. Its buffers keep
/// their capacity.
#[derive(Debug, Clone, Default)]
struct AgentSums {
    /// `(|TD| share, loss term)` per branch and row, `d * B + b`.
    terms: Vec<(f64, f32)>,
    /// One per branch.
    first_grads: Vec<Tensor>,
    trunk_grad: Tensor,
}

impl AgentSums {
    /// Adds the recorded terms to `sums`, each sum's in the order they were
    /// recorded.
    fn replay(&self, batch: usize, sums: &mut impl Sums) {
        for (i, &(abs_td, loss)) in self.terms.iter().enumerate() {
            sums.td(i % batch, abs_td, loss);
        }
        for (d, grad) in self.first_grads.iter().enumerate() {
            sums.first_grad(d, grad);
        }
        sums.trunk_grad(&self.trunk_grad);
    }

    fn heap_bytes(&self) -> usize {
        self.terms.capacity() * std::mem::size_of::<(f64, f32)>()
            + tensors_heap_bytes(self.first_grads.iter().chain([&self.trunk_grad]))
            + self.first_grads.capacity() * std::mem::size_of::<Tensor>()
    }
}

impl Sums for AgentSums {
    fn td(&mut self, _b: usize, abs_td: f64, loss: f32) {
        self.terms.push((abs_td, loss));
    }

    fn first_grad(&mut self, d: usize, grad: &Tensor) {
        self.first_grads[d].copy_from(grad);
    }

    fn trunk_grad(&mut self, grad: &Tensor) {
        self.trunk_grad.copy_from(grad);
    }
}

/// The target passes a task runs for each of its agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Passes {
    /// The greedy actions ([`Lane::greedy`]) on `Sample::stage`, the online
    /// network's first stage of `x_next`.
    Greedy,
    /// The targets ([`Lane::targets`]) on `Sample::stage`, the target
    /// network's first stage.
    Targets,
    /// Both, on the stages a prologue run ahead left in
    /// `Sample::next_stages`.
    Ahead,
}

/// A task of the helper's share of a gradient step.
#[derive(Debug, Clone, Copy)]
enum Task {
    /// The odd agents' target `passes`. Before the greedy actions of a step
    /// that did not run ahead, the helper's copies of the advantage heads
    /// take the step's parameters and dropout streams (a prologue run ahead
    /// gave them those).
    Targets { passes: Passes },
    /// Odd agent `agent`'s head pass, after skipping the dropout draws of
    /// agent `agent − 1` if `skip`; with `live` false, only the skip.
    Head {
        agent: usize,
        skip: bool,
        live: bool,
    },
    /// The upper part of the optimiser step ([`Net::upper_mlps`]).
    Adam { split: usize },
    /// The prologue of the next step, run ahead ([`Prologue::run`]).
    Prologue,
}

impl Task {
    /// Index into [`Share::warm`].
    fn slot(self) -> usize {
        match self {
            Task::Targets { passes } => passes as usize,
            Task::Head { .. } => 3,
            Task::Adam { .. } => 4,
            Task::Prologue => 5,
        }
    }
}

/// What a task reads of the learner's, lent for one run: the run takes it
/// and lets it go when it ends, so the learner's `Arc`s are its own again,
/// and `Arc::make_mut` writes in place, once the run is over.
#[derive(Debug, Default)]
struct Lent {
    sample: Option<Arc<Sample>>,
    target: Option<Arc<Net>>,
    online: Option<Arc<Net>>,
    /// The replay buffer's index and storage.
    replay: Option<(Arc<Priorities>, Arc<TransitionSlab>)>,
}

/// The helper's part of a prologue run ahead ([`MaBdq::prepare_step`]): its
/// inputs, and the step state the learner moves in for it and takes back
/// when it joins. Between two prologues `sample` is an empty stand-in.
#[derive(Debug)]
struct Prologue {
    /// The step's sample, for the prologue to fill.
    sample: Arc<Sample>,
    /// The step's trunk tape: the evaluation forwards of `x_next` and the
    /// train-mode forward of `x` run on it, the epilogue's backward reads it.
    trunk_tape: Tape,
    /// The online trunk's layers, which carry its dropout streams through
    /// the train-mode forward ([`Mlp::on_weights`]) while the weights stay
    /// shared. The learner takes the streams back when it uses the
    /// prologue, and never sees them move when it does not.
    streams: Mlp,
    /// A copy of the learner's stream, drawn from by the sample.
    rng: Xoshiro256,
    /// The joint state and actions of the transition the next push stores,
    /// as the replay buffer keeps them.
    states: Vec<f32>,
    actions: Vec<u16>,
    /// The slot that push claims.
    slot: usize,
}

impl Prologue {
    fn heap_bytes(&self) -> usize {
        arc_block_bytes::<Sample>()
            + self.sample.heap_bytes()
            + self.trunk_tape.heap_bytes()
            + self.streams.heap_bytes()
            + self.states.capacity() * std::mem::size_of::<f32>()
            + self.actions.capacity() * std::mem::size_of::<u16>()
    }

    /// The part of the next step's prologue that no agent's targets are
    /// part of, run on the helper while the caller simulates the epoch that
    /// produces the step's newest transition: the advantage-head copies for
    /// the helper's head passes, the sample as it will be after the push,
    /// the online and target networks' first stages of `x_next`, and the
    /// train-mode trunk forward of `x` with its prefixes. The pushed slot's
    /// rows read the pending transition, with zeros for its reward and next
    /// state, which only the targets read ([`MaBdq::adopt_prologue`]).
    fn run(
        &mut self,
        shape: Shape,
        (online, target, (priorities, slab)): (&Net, &Net, (&Priorities, &TransitionSlab)),
        copies: &mut Net,
    ) {
        // First, so that the copies land in this thread's cache.
        copies.adv_heads.clone_from(&online.adv_heads);
        let Prologue {
            sample,
            trunk_tape,
            streams,
            rng,
            states,
            actions,
            slot,
        } = self;
        streams.copy_streams_from(&online.trunk);
        let sample = Arc::make_mut(sample);
        *slot = priorities.sample_after_push_into(shape.batch, rng, &mut sample.batch);
        sample.gather(slab, Some((*slot, states, actions)));
        let Sample {
            x,
            x_next,
            stage,
            next_stages,
            ..
        } = sample;
        // The trunk's tape is idle until the train-mode forward below.
        for (net, next) in [online, target].into_iter().zip(next_stages) {
            net.eval_shared(x_next, trunk_tape, next);
        }
        let pass = streams.on_weights(&online.trunk, trunk_tape);
        train_stage(pass, (&online.adv_heads, shape.agents > 1), x, stage);
    }
}

/// The train-mode trunk forward of `x` into `stage.trunk_out` and, if
/// `prefixed` (`K > 1`), each advantage head's first-layer product over it.
fn train_stage(
    pass: Pass<'_>,
    (adv_heads, prefixed): (&[Mlp], bool),
    x: &Tensor,
    stage: &mut Trunked,
) {
    stage.trunk_out.copy_from(pass.forward_scratch(x, true));
    if prefixed {
        stage.prefixes.resize_with(adv_heads.len(), Tensor::default);
        for (head, prefix) in adv_heads.iter().zip(&mut stage.prefixes) {
            head.prefix_into(&stage.trunk_out, prefix);
        }
    }
}

/// The helper's share of a gradient step, the job a [`Helper`] runs. The
/// learner builds it, and runs each task here on its own thread the first
/// time, so that its thread, not the helper's, sizes every buffer: the
/// helper never allocates.
#[derive(Debug)]
struct Share {
    task: Task,
    shape: Shape,
    /// What the posted task reads of the learner's, for the run alone.
    lent: Lent,
    /// The online network as the helper has it: copies of the advantage
    /// heads, parameters and dropout streams taken at the start of each
    /// step (their gradients are one head pass's), plus whatever value
    /// heads a task moved in. Its trunk is empty.
    online: Net,
    lane: Lane,
    /// The last head pass's sums and quarantine signals.
    agent_sums: AgentSums,
    signals: (f64, f64),
    /// The upper part of the optimiser, moved in for [`Task::Adam`].
    adam: Adam,
    prologue: Prologue,
    /// Tasks that have run once.
    warm: [bool; 6],
}

impl Share {
    fn new(config: &MaBdqConfig, online: &Net) -> Self {
        Share {
            task: Task::Prologue,
            shape: Shape::of(config),
            lent: Lent::default(),
            online: Net {
                trunk: Mlp::default(),
                value_heads: (0..config.agents).map(|_| Mlp::default()).collect(),
                adv_heads: online.adv_heads.clone(),
            },
            lane: Lane::default(),
            agent_sums: AgentSums {
                first_grads: vec![Tensor::default(); config.branches.len()],
                ..AgentSums::default()
            },
            signals: (0.0, 0.0),
            adam: Adam::new(config.lr),
            prologue: Prologue {
                sample: Arc::default(),
                trunk_tape: Tape::default(),
                streams: Mlp::default(),
                rng: Xoshiro256::seed_from_u64(0),
                states: Vec::new(),
                actions: Vec::new(),
                slot: 0,
            },
            warm: [false; 6],
        }
    }

    fn heap_bytes(&self) -> usize {
        self.online.heap_bytes()
            + self.lane.heap_bytes()
            + self.agent_sums.heap_bytes()
            + self.adam.heap_bytes()
            + self.prologue.heap_bytes()
    }
}

impl Job for Share {
    fn run(&mut self) {
        let Share {
            task,
            shape,
            lent,
            online,
            lane,
            agent_sums,
            signals,
            adam,
            prologue,
            warm,
        } = self;
        let shape = *shape;
        let Lent {
            sample,
            target,
            online: online_net,
            replay,
        } = std::mem::take(lent);
        let sample = || sample.as_deref().expect("posted with the sample");
        let target = || target.as_deref().expect("posted with the target network");
        let online_net = || {
            online_net
                .as_deref()
                .expect("posted with the online network")
        };
        match *task {
            Task::Targets { passes } => {
                let nets = (online_net(), target());
                if passes == Passes::Greedy {
                    // First, so that they land in this thread's cache.
                    online.adv_heads.clone_from(&nets.0.adv_heads);
                }
                for k in (1..shape.agents).step_by(2) {
                    lane.target_passes(passes, nets, sample(), k, shape);
                }
            }
            Task::Head { agent, skip, live } => {
                let Net {
                    value_heads,
                    adv_heads,
                    ..
                } = online;
                skip_an_agent(adv_heads, skip, shape);
                if !live {
                    // Sized by the next live pass, not this one.
                    return;
                }
                for head in adv_heads.iter_mut() {
                    head.zero_grads();
                }
                agent_sums.terms.clear();
                let vh = &mut value_heads[agent];
                *signals = lane.head_pass((shape, sample(), agent), vh, adv_heads, agent_sums);
            }
            Task::Adam { split } => adam_update(adam, online.upper_mlps(split)),
            Task::Prologue => {
                let (priorities, slab) = replay.as_ref().expect("posted with the replay buffer");
                let nets = (online_net(), target(), (&**priorities, &**slab));
                prologue.run(shape, nets, online);
            }
        }
        warm[task.slot()] = true;
    }
}

/// Moves the advantage heads' dropout streams past one agent's head pass,
/// if `skip`.
fn skip_an_agent(adv_heads: &mut [Mlp], skip: bool, shape: Shape) {
    if skip {
        for head in adv_heads {
            head.skip_train_draws(shape.batch);
        }
    }
}

/// Whether a learner steps with a helper thread. Decided at its first
/// gradient step or prologue run ahead; a clone starts undecided.
#[derive(Debug, Default)]
enum Helping {
    #[default]
    Undecided,
    Alone,
    With(Helper<Share>),
}

impl Clone for Helping {
    fn clone(&self) -> Self {
        Helping::Undecided
    }
}

/// Where the next gradient step's prologue stands ([`MaBdq::prepare_step`]).
#[derive(Debug, Default)]
enum Ahead {
    /// Nothing runs ahead.
    #[default]
    Idle,
    /// The prologue is posted to the helper, or, before the job's first
    /// run, waits to run on the calling thread when it is joined.
    Posted { on_helper: bool },
    /// The pictured transition is stored; the next
    /// [`train_step`](MaBdq::train_step) adopts the prologue.
    Ready,
}

impl Clone for Ahead {
    /// A clone has nothing running ahead: its own state is the learner's
    /// before the prologue, which never touched it.
    fn clone(&self) -> Self {
        Ahead::Idle
    }
}

/// Runs `task` on the helper while `mine` runs here, with `lent` in the job
/// for the run. Until a task has run once, both run here, the task first,
/// so that this thread sizes its buffers. The caller takes back whatever
/// else it moved into the job before it resumes the result.
fn post<R>(
    helper: &mut Helper<Share>,
    task: Task,
    lent: Lent,
    mine: impl FnOnce() -> R,
) -> Finished<R> {
    let warm = {
        let mut job = helper.job();
        job.task = task;
        job.lent = lent;
        job.warm[task.slot()]
    };
    if warm {
        helper.run(mine)
    } else {
        helper.run_here(mine)
    }
}

/// One Adam step over the arenas of `mlps`, in order.
fn adam_update<'a>(adam: &mut Adam, mlps: impl Iterator<Item = &'a mut Mlp>) {
    adam.update(mlps.map(Mlp::trainable));
}

/// Adam over the online network's arenas in [`Net::mlps`] order, kept as
/// two optimisers that meet at value head `split`: the lower one steps
/// [`Net::lower_mlps`], the upper one [`Net::upper_mlps`], and with a helper
/// they step at once. Adam is element-wise and both count the same steps, so
/// the two are one optimiser step over the flat arena, bit for bit — where a
/// part starts changes nothing but which chunks `Parking` scans — and a
/// checkpoint's moments are the lower part's followed by the upper part's.
#[derive(Debug, Clone)]
struct SplitAdam {
    lower: Adam,
    upper: Adam,
    /// Value heads in the lower part.
    split: usize,
    /// Parameters in each part.
    lens: (usize, usize),
}

impl SplitAdam {
    /// Splits at the value head that leaves the parts closest in size.
    fn new(lr: f32, net: &Net) -> Self {
        let total = net.param_count();
        let mut lower = net.trunk.param_count();
        let (mut split, mut best) = (0, lower);
        for (k, head) in net.value_heads.iter().enumerate() {
            lower += head.param_count();
            if lower.abs_diff(total - lower) < best.abs_diff(total - best) {
                (split, best) = (k + 1, lower);
            }
        }
        SplitAdam {
            lower: Adam::new(lr),
            upper: Adam::new(lr),
            split,
            lens: (best, total - best),
        }
    }

    /// Moments for both parts, allocated here when empty.
    fn size(&mut self) {
        self.lower.sized(self.lens.0);
        self.upper.sized(self.lens.1);
    }

    fn steps(&self) -> u64 {
        self.lower.steps()
    }

    /// Whether the moments exist: a step has run since construction or the
    /// last reset, or a checkpoint brought them.
    fn is_sized(&self) -> bool {
        !self.lower.moments().0.is_empty()
    }

    /// The first and second moments, flat: `(m, v)` per parameter.
    fn moments(&self) -> impl Iterator<Item = (f32, f32)> + '_ {
        [self.lower.moments(), self.upper.moments()]
            .into_iter()
            .flat_map(|(m, v)| m.iter().copied().zip(v.iter().copied()))
    }

    fn reset_state(&mut self) {
        self.lower.reset_state();
        self.upper.reset_state();
    }

    fn heap_bytes(&self) -> usize {
        self.lower.heap_bytes() + self.upper.heap_bytes()
    }
}

/// The one gradient step's working memory and its resume point. The
/// prologue fills it, the per-agent head passes add to it, the epilogue
/// consumes it; [`MaBdq::train_step`] runs the three back to back and
/// [`MaBdq::train_step_budgeted`] returns after each head pass, advancing
/// `next_agent`. Every
/// buffer keeps its capacity across steps, so both entry points are
/// allocation-free in steady state.
///
/// The tapes are split by lifetime, not by network. A tape can serve any
/// number of networks as long as each forward-backward pair on it ends
/// before the next pass on it begins: that is why all `K` value heads share
/// the lane's `value_tape`, every advantage head and every head evaluation
/// shares the lane's evaluation tape, and only the trunk, whose forward in
/// the prologue waits for its backward in the epilogue, has one of its own
/// (which its evaluation forwards use before that).
///
/// With a helper ([`MaBdq::train_step`] has the split), the per-agent work
/// runs on two lanes, this one and the helper's. The advantage heads'
/// dropout streams are drawn from on both: the online heads here, the
/// helper's copies there, each skipping the draws of the other side's
/// previous agent if it is live, so every agent draws what it would have on
/// one thread.
#[derive(Debug, Clone, Default)]
struct StepState {
    /// A step has started and its epilogue has not run.
    in_flight: bool,
    /// The agent whose head pass a budgeted step's next chunk runs.
    next_agent: usize,
    sample: Arc<Sample>,
    /// This thread's lane.
    lane: Lane,
    /// Written by the prologue's train-mode trunk forward, read by the
    /// epilogue's trunk backward, touched by nothing in between. Before
    /// that forward, the evaluation stages of `x_next` run the trunk's
    /// stateless forward on it.
    trunk_tape: Tape,
    sums: StepSums,
    /// A prologue run ahead's row patch: the newest transition's next state
    /// (`x_next`, one row) and rewards, and the first stages of that row.
    patch: Sample,
    /// Per-agent summed |TD| this step (quarantine signal; unused when
    /// quarantine is disabled).
    agent_td: Vec<f64>,
    /// Per-agent value-head squared gradient norm this step (quarantine
    /// signal).
    agent_vgrad: Vec<f64>,
}

impl StepState {
    fn heap_bytes(&self) -> usize {
        let f64s = self.agent_td.capacity() + self.agent_vgrad.capacity();
        arc_block_bytes::<Sample>()
            + self.sample.heap_bytes()
            + self.lane.heap_bytes()
            + self.trunk_tape.heap_bytes()
            + self.sums.heap_bytes()
            + self.patch.heap_bytes()
            + f64s * std::mem::size_of::<f64>()
    }

    /// Agent `k`'s head pass on this thread's lane, after skipping the
    /// dropout draws of agent `k − 1` if `skip`. A quarantined agent (`live`
    /// false) contributes nothing: no forward, no loss term, no gradient, no
    /// replay priority and no dropout draw.
    fn head_pass(&mut self, online: &mut Net, (shape, k, skip, live): (Shape, usize, bool, bool)) {
        let Net {
            value_heads,
            adv_heads,
            ..
        } = online;
        skip_an_agent(adv_heads, skip, shape);
        if live {
            let (pass, vh) = ((shape, &*self.sample, k), &mut value_heads[k]);
            (self.agent_td[k], self.agent_vgrad[k]) =
                self.lane.head_pass(pass, vh, adv_heads, &mut self.sums);
        }
    }
}

// A learner moves between threads (a fleet's nodes do, §18), and so does
// its helper's job.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<MaBdq>();
    send::<Share>();
};

impl MaBdq {
    /// Builds the online and target networks.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::InvalidConfig`] for an invalid configuration.
    pub fn new(config: MaBdqConfig) -> Result<Self, RlError> {
        config.validate()?;
        let mut rng = Xoshiro256::seed_from_u64(config.seed);
        let online = Net::new(&config, &mut rng);
        let mut target = Net::new(&config, &mut rng);
        target.copy_weights_from(&online);
        let adam = SplitAdam::new(config.lr, &online);
        let priorities = Priorities::new(
            config.buffer_capacity,
            config.per_alpha,
            PER_BETA0,
            PER_BETA_STEPS,
        );
        let slab = TransitionSlab::new(
            config.agents,
            config.state_dim,
            config.branches.len(),
            config.buffer_capacity,
        );
        let mut agent = MaBdq {
            config,
            online: Arc::new(online),
            target: Arc::new(target),
            adam,
            priorities: Arc::new(priorities),
            slab: Arc::new(slab),
            rng,
            stats: LearnerStats::default(),
            telemetry: Telemetry::disabled(),
            scratch: DecideScratch::default(),
            step: StepState::default(),
            helping: Helping::Undecided,
            ahead: Ahead::Idle,
            guards: Vec::new(),
            quarantine: QuarantineStats::default(),
            quantized: None,
        };
        agent.rebuild_guards();
        Ok(agent)
    }

    /// Attaches a telemetry handle: [`observe`](Self::observe) and
    /// [`train_step`](Self::train_step) then record learner health (loss,
    /// TD error, gradient norm, buffer occupancy, rejected non-finite
    /// transitions). Telemetry never feeds back into training, so learning
    /// trajectories are identical with or without it.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The configuration.
    pub fn config(&self) -> &MaBdqConfig {
        &self.config
    }

    /// Completed gradient steps.
    pub fn steps(&self) -> u64 {
        self.stats.steps
    }

    /// Gradient steps skipped because the loss or gradients went
    /// non-finite (the NaN guard — no weights were touched on those
    /// steps).
    pub fn skipped_steps(&self) -> u64 {
        self.stats.skipped_steps
    }

    /// Lifetime learner counters (applied and skipped steps, refused
    /// transitions).
    pub fn learner_stats(&self) -> LearnerStats {
        self.stats
    }

    /// Transitions currently buffered.
    pub fn buffer_len(&self) -> usize {
        self.priorities.len()
    }

    /// Aggregate quarantine counters (trips, re-admissions, currently
    /// frozen agents).
    pub fn quarantine_stats(&self) -> QuarantineStats {
        QuarantineStats {
            frozen_agents: self.guards.iter().filter(|g| g.frozen_until > 0).count(),
            ..self.quarantine
        }
    }

    /// Rebuilds per-agent guards with fresh snapshots of the current value
    /// heads (or drops them entirely when quarantine is disabled).
    fn rebuild_guards(&mut self) {
        if !self.config.quarantine.enabled {
            self.guards.clear();
            return;
        }
        self.guards = self
            .online
            .value_heads
            .iter()
            .map(|vh| AgentGuard {
                td_baseline: 0.0,
                grad_baseline: 0.0,
                baseline_samples: 0,
                frozen_until: 0,
                snapshot: vh.parameters().to_vec(),
                snapshot_age: 0,
            })
            .collect();
    }

    /// The monotone clock probation is measured against: it advances on
    /// applied *and* skipped train calls, so a fleet stuck behind the
    /// global NaN guard still serves out probation windows.
    fn train_clock(&self) -> u64 {
        self.stats.steps + self.stats.skipped_steps
    }

    /// Re-admits agents whose probation has expired: unfreeze, restart
    /// baselines, and take a fresh last-known-good snapshot.
    fn quarantine_readmit(&mut self) {
        let clock = self.train_clock();
        let MaBdq {
            guards,
            online,
            quarantine,
            telemetry,
            ..
        } = self;
        for (k, guard) in guards.iter_mut().enumerate() {
            if guard.frozen_until > 0 && clock >= guard.frozen_until {
                guard.frozen_until = 0;
                guard.baseline_samples = 0;
                guard.td_baseline = 0.0;
                guard.grad_baseline = 0.0;
                guard.snapshot_age = 0;
                guard
                    .snapshot
                    .copy_from_slice(online.value_heads[k].parameters());
                quarantine.bump(telemetry, |s| &mut s.readmissions);
            }
        }
    }

    /// Divergence scan over this step's per-agent signals (runs on applied
    /// and skipped steps alike). A tripped agent's value head is rolled
    /// back to its last-known-good snapshot and frozen until
    /// `clock + probation_steps`; healthy agents fold their signals into
    /// the EWMA baselines and refresh their snapshot on schedule.
    fn quarantine_scan(&mut self) {
        if !self.config.quarantine.enabled {
            return;
        }
        let q = self.config.quarantine.clone();
        let clock = self.train_clock();
        let denom = (self.config.batch_size * self.config.branches.len()) as f64;
        let mut frozen_now = 0usize;
        let MaBdq {
            guards,
            online,
            step,
            quarantine,
            telemetry,
            ..
        } = self;
        let online = Arc::make_mut(online);
        for (k, guard) in guards.iter_mut().enumerate() {
            if guard.frozen_until > 0 {
                frozen_now += 1;
                continue;
            }
            let td = step.agent_td[k] / denom;
            let grad = step.agent_vgrad[k].sqrt();
            let warmed = guard.baseline_samples >= q.warmup_steps;
            let td_limit = q.trip_multiple * guard.td_baseline.max(QUARANTINE_BASELINE_FLOOR);
            let grad_limit = q.trip_multiple * guard.grad_baseline.max(QUARANTINE_BASELINE_FLOOR);
            let blown = !td.is_finite()
                || !grad.is_finite()
                || td > QUARANTINE_HARD_TD_LIMIT
                || (warmed && (td > td_limit || grad > grad_limit));
            if blown {
                online.value_heads[k]
                    .import_parameters(&guard.snapshot)
                    .expect("snapshot taken from this head");
                guard.frozen_until = clock + q.probation_steps;
                quarantine.bump(telemetry, |s| &mut s.trips);
                frozen_now += 1;
                continue;
            }
            if guard.baseline_samples == 0 {
                guard.td_baseline = td;
                guard.grad_baseline = grad;
            } else {
                guard.td_baseline += QUARANTINE_BASELINE_ALPHA * (td - guard.td_baseline);
                guard.grad_baseline += QUARANTINE_BASELINE_ALPHA * (grad - guard.grad_baseline);
            }
            guard.baseline_samples += 1;
            guard.snapshot_age += 1;
            if guard.snapshot_age >= q.snapshot_every {
                guard
                    .snapshot
                    .copy_from_slice(online.value_heads[k].parameters());
                guard.snapshot_age = 0;
            }
        }
        telemetry.gauge_set("quarantine.frozen_agents", frozen_now as f64);
    }

    /// Trainable parameters across trunk and heads.
    pub fn param_count(&self) -> usize {
        self.online.param_count()
    }

    /// Bytes of the parameters of the online + target networks (4 bytes per
    /// parameter) — the Section V-B1 memory metric. That is what the paper
    /// counts, not what the learner holds: gradients, optimiser moments and
    /// working memory come on top, see [`learner_bytes`](Self::learner_bytes).
    pub fn memory_bytes(&self) -> usize {
        2 * self.param_count() * std::mem::size_of::<f32>()
    }

    /// Heap bytes the learner holds right now besides the replay buffer
    /// ([`replay_bytes`](Self::replay_bytes)), at allocated capacity:
    /// [`learner_memory`](Self::learner_memory)`().total()`.
    pub fn learner_bytes(&self) -> usize {
        self.learner_memory().total()
    }

    /// Where the learner's heap bytes are (besides the replay buffer), at
    /// allocated capacity. Buffers are sized by the first decide and the
    /// first train step, so read it after those.
    pub fn learner_memory(&self) -> LearnerMemory {
        let guards = self.guards.capacity() * std::mem::size_of::<AgentGuard>()
            + self
                .guards
                .iter()
                .map(|g| g.snapshot.capacity() * std::mem::size_of::<f32>())
                .sum::<usize>();
        LearnerMemory {
            networks: self.online.heap_bytes()
                + 2 * arc_block_bytes::<Net>()
                + self.target.heap_bytes(),
            optimiser: self.adam.heap_bytes(),
            step: self.step.heap_bytes(),
            helper: match &self.helping {
                Helping::With(helper) => helper.heap_bytes() + helper.job().heap_bytes(),
                _ => 0,
            },
            decide: self.scratch.heap_bytes()
                + self.quantized.as_ref().map_or(0, |q| q.heap_bytes()),
            guards,
        }
    }

    /// Heap bytes the replay buffer holds right now: the transition records
    /// with their links
    /// ([`replay_record_bytes`](crate::memory::replay_record_bytes) each),
    /// the newest record's next state, the orphan table
    /// ([`replay_unlinked`](Self::replay_unlinked)) and the priority tree,
    /// all counted at their allocated capacity. Grows with
    /// [`buffer_len`](Self::buffer_len), not with `buffer_capacity`.
    pub fn replay_bytes(&self) -> usize {
        self.slab.heap_bytes() + self.priorities.heap_bytes()
    }

    /// Stored transitions whose next state is kept in the replay buffer's
    /// orphan table because the transition stored after them did not start
    /// from it, bit for bit. A control loop that observes every epoch has
    /// none: each record's next state is then the following record's state,
    /// stored once. A dropped or degraded epoch leaves one.
    pub fn replay_unlinked(&self) -> usize {
        self.slab.unlinked()
    }

    fn check_states(&self, states: &[Vec<f32>]) -> Result<(), RlError> {
        if states.len() != self.config.agents
            || states.iter().any(|s| s.len() != self.config.state_dim)
        {
            return Err(RlError::DimensionMismatch {
                detail: format!(
                    "expected {} agents x {} dims",
                    self.config.agents, self.config.state_dim
                ),
            });
        }
        Ok(())
    }

    /// ε-greedy per-branch action selection for all agents:
    /// `actions[k][d]` is agent `k`'s choice on branch `d`.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::DimensionMismatch`] for wrongly shaped states.
    pub fn select_actions(
        &mut self,
        states: &[Vec<f32>],
        epsilon: f64,
    ) -> Result<Vec<Vec<usize>>, RlError> {
        let mut out = Vec::with_capacity(self.config.agents);
        self.select_actions_into(states, epsilon, &mut out)?;
        Ok(out)
    }

    /// [`select_actions`](Self::select_actions) into a reusable buffer:
    /// inner vectors keep their capacity across calls, so steady-state
    /// selection is allocation-free. Identical RNG draws and results.
    ///
    /// Inference runs on the fused batched path
    /// (`Net::q_values_fused_into`): all `K` agents' shared-weight
    /// advantage-head forwards execute as one register-tiled GEMM per branch.
    /// Actions and Q-values are bit-identical to the per-agent reference
    /// path, which stays available as
    /// [`select_actions_unfused_into`](Self::select_actions_unfused_into)
    /// for the twin-run tests and the `bench_decide` speedup measurement.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::DimensionMismatch`] for wrongly shaped states.
    pub fn select_actions_into(
        &mut self,
        states: &[Vec<f32>],
        epsilon: f64,
        out: &mut Vec<Vec<usize>>,
    ) -> Result<(), RlError> {
        self.eval_fused(states)?;
        self.greedy_with_epsilon(Some(epsilon), out);
        Ok(())
    }

    /// Greedy per-branch action selection on the fused path: the first
    /// maximum of each row [`q_values_into`](Self::q_values_into) would
    /// return. Draws nothing from the RNG, so it cannot perturb the ε stream
    /// of [`select_actions_into`](Self::select_actions_into) — the
    /// `SafeFallback` shed tier decides with it. Allocation-free in steady
    /// state, like the ε-greedy select.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::DimensionMismatch`] for wrongly shaped states.
    pub fn select_actions_greedy_into(
        &mut self,
        states: &[Vec<f32>],
        out: &mut Vec<Vec<usize>>,
    ) -> Result<(), RlError> {
        self.eval_fused(states)?;
        self.greedy_with_epsilon(None, out);
        Ok(())
    }

    /// Evaluates one joint state on the fused path into `scratch.q_eval`.
    fn eval_fused(&mut self, states: &[Vec<f32>]) -> Result<(), RlError> {
        self.settle();
        self.check_states(states)?;
        self.pack_joint_state(states);
        let DecideScratch {
            x,
            shared,
            eval,
            q_eval,
        } = &mut self.scratch;
        self.online
            .q_values_fused_into(x, self.config.state_dim, (shared, eval), q_eval);
        Ok(())
    }

    /// Per-agent reference implementation of
    /// [`select_actions_into`](Self::select_actions_into): every agent
    /// forwards the shared trunk itself and runs one head forward per
    /// branch — no batching, no cross-agent reuse
    /// (`Net::q_values_per_agent_into`). Draws the same RNG stream and
    /// returns bit-identical actions — the twin-run tests assert this, and
    /// `bench_decide` measures the fused path's speedup against it.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::DimensionMismatch`] for wrongly shaped states.
    pub fn select_actions_unfused_into(
        &mut self,
        states: &[Vec<f32>],
        epsilon: f64,
        out: &mut Vec<Vec<usize>>,
    ) -> Result<(), RlError> {
        self.settle();
        self.check_states(states)?;
        self.pack_joint_state(states);
        let DecideScratch {
            x,
            shared,
            eval,
            q_eval,
        } = &mut self.scratch;
        self.online
            .q_values_per_agent_into(x, self.config.state_dim, (shared, eval), q_eval);
        self.greedy_with_epsilon(Some(epsilon), out);
        Ok(())
    }

    /// Shared action pick over `scratch.q_eval`: agents outer, branches
    /// inner. With `Some(ε)`, one `next_f64` per (agent, branch) — the draw
    /// order both ε-greedy selection paths share, so their RNG streams stay
    /// in lockstep; with `None`, the first-max argmax and no draw at all.
    fn greedy_with_epsilon(&mut self, epsilon: Option<f64>, out: &mut Vec<Vec<usize>>) {
        out.resize_with(self.config.agents, Vec::new);
        for (branches, agent_actions) in self.scratch.q_eval.iter().zip(out.iter_mut()) {
            agent_actions.clear();
            for (d, qd) in branches.iter().enumerate() {
                let n = self.config.branches[d];
                let a = match epsilon {
                    Some(eps) if self.rng.next_f64() < eps => self.rng.range_usize(0, n),
                    _ => argmax(qd.row(0)),
                };
                agent_actions.push(a);
            }
        }
    }

    /// Builds a fresh fixed-point snapshot of the online network for
    /// [`select_actions_quantized_into`](Self::select_actions_quantized_into).
    /// Nothing in the control loop calls it: it serves only the
    /// `rl.select_quantized_p50_us` ledger probe, and a later ledger change
    /// retires it together with that probe.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::DimensionMismatch`] when a layer exceeds the
    /// fixed-point accumulator headroom (`in_dim > 8192`).
    pub fn refresh_quantized(&mut self) -> Result<(), RlError> {
        self.settle();
        self.quantized = Some(Box::new(QuantizedNet::from_net(&self.online)?));
        Ok(())
    }

    /// Greedy action selection on the fixed-point snapshot, built on first
    /// use if [`refresh_quantized`](Self::refresh_quantized) has not run;
    /// draws nothing from the RNG. Because the dueling combine
    /// `Q = V + A − mean(A)` only shifts each branch row by a per-agent
    /// constant, it ranks advantages and skips the value heads. Nothing in
    /// the control loop calls it: it serves only the
    /// `rl.select_quantized_p50_us` ledger probe, and a later ledger change
    /// retires it together with that probe.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::DimensionMismatch`] for wrongly shaped states or a
    /// network too wide to quantize.
    pub fn select_actions_quantized_into(
        &mut self,
        states: &[Vec<f32>],
        out: &mut Vec<Vec<usize>>,
    ) -> Result<(), RlError> {
        self.settle();
        self.check_states(states)?;
        self.pack_joint_state(states);
        if self.quantized.is_none() {
            self.refresh_quantized()?;
        }
        let state_dim = self.config.state_dim;
        let agents = self.config.agents;
        let qn = self.quantized.as_mut().expect("built above");
        let QuantizedNet {
            trunk,
            adv_heads,
            trunk_out,
            input_k,
            adv,
        } = qn.as_mut();
        trunk.forward_into(&self.scratch.x, trunk_out);
        let trunk_dim = trunk_out.cols();
        out.resize_with(agents, Vec::new);
        for (k, agent_actions) in out.iter_mut().enumerate() {
            input_k.resize_zeroed(1, trunk_dim + state_dim);
            let row = input_k.row_mut(0);
            row[..trunk_dim].copy_from_slice(trunk_out.row(0));
            row[trunk_dim..]
                .copy_from_slice(&self.scratch.x.row(0)[k * state_dim..(k + 1) * state_dim]);
            agent_actions.clear();
            for head in adv_heads.iter_mut() {
                head.forward_into(input_k, adv);
                agent_actions.push(argmax(adv.row(0)));
            }
        }
        Ok(())
    }

    /// Q-values for one joint state: `q[k][d][a]`. Dropout disabled.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::DimensionMismatch`] for wrongly shaped states.
    pub fn q_values(&mut self, states: &[Vec<f32>]) -> Result<Vec<Vec<Vec<f32>>>, RlError> {
        let mut out = Vec::with_capacity(self.config.agents);
        self.q_values_into(states, &mut out)?;
        Ok(out)
    }

    /// [`q_values`](Self::q_values) into a reusable nested buffer; the
    /// allocation-free sibling used by the per-epoch control loop. Runs on
    /// the fused batched path, bit-identical to
    /// [`q_values_unfused_into`](Self::q_values_unfused_into).
    ///
    /// # Errors
    ///
    /// Returns [`RlError::DimensionMismatch`] for wrongly shaped states.
    pub fn q_values_into(
        &mut self,
        states: &[Vec<f32>],
        out: &mut Vec<Vec<Vec<f32>>>,
    ) -> Result<(), RlError> {
        self.eval_fused(states)?;
        self.export_q_eval(out);
        Ok(())
    }

    /// Per-agent reference implementation of
    /// [`q_values_into`](Self::q_values_into) — per-agent trunk passes and
    /// single-batch head forwards (`Net::q_values_per_agent_into`) — kept
    /// for the twin-run bit-identity tests and the `bench_decide` baseline.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::DimensionMismatch`] for wrongly shaped states.
    pub fn q_values_unfused_into(
        &mut self,
        states: &[Vec<f32>],
        out: &mut Vec<Vec<Vec<f32>>>,
    ) -> Result<(), RlError> {
        self.settle();
        self.check_states(states)?;
        self.pack_joint_state(states);
        let DecideScratch {
            x,
            shared,
            eval,
            q_eval,
        } = &mut self.scratch;
        self.online
            .q_values_per_agent_into(x, self.config.state_dim, (shared, eval), q_eval);
        self.export_q_eval(out);
        Ok(())
    }

    /// Agent `agent`'s Q-values on branch `branch` as the most recent
    /// full-precision decide call (`select_actions*` or `q_values*`, not
    /// `select_actions_quantized_into`) evaluated them, for a caller that
    /// wants to look at the values behind the actions it was just handed
    /// without a second forward pass. `None` before the first such call or out of range.
    pub fn last_q_values(&self, agent: usize, branch: usize) -> Option<&[f32]> {
        let q = self.scratch.q_eval.get(agent)?.get(branch)?;
        Some(q.row(0))
    }

    /// Copies `scratch.q_eval` row 0 into the nested public buffer.
    fn export_q_eval(&self, out: &mut Vec<Vec<Vec<f32>>>) {
        out.resize_with(self.config.agents, Vec::new);
        for (branches, branches_out) in self.scratch.q_eval.iter().zip(out.iter_mut()) {
            branches_out.resize_with(branches.len(), Vec::new);
            for (t, dst) in branches.iter().zip(branches_out.iter_mut()) {
                dst.clear();
                dst.extend_from_slice(t.row(0));
            }
        }
    }

    /// Packs one joint state (`K` per-agent vectors) into the single-row
    /// scratch tensor the decide paths evaluate.
    fn pack_joint_state(&mut self, states: &[Vec<f32>]) {
        self.scratch
            .x
            .resize_zeroed(1, self.config.agents * self.config.state_dim);
        pack_joint(states, self.scratch.x.row_mut(0));
    }

    /// Stores one transition in the prioritised replay buffer. Same as
    /// [`observe_parts`](Self::observe_parts), which only borrows.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::DimensionMismatch`] for a wrongly shaped
    /// transition.
    pub fn observe(&mut self, transition: MultiTransition) -> Result<(), RlError> {
        self.observe_parts(
            &transition.states,
            &transition.actions,
            &transition.rewards,
            &transition.next_states,
        )
    }

    /// Stores one transition — the fields of a [`MultiTransition`], borrowed
    /// — by copying it into the replay buffer's next record. Nothing of the
    /// caller's is kept and nothing is allocated per transition (the buffer
    /// grows amortised, up to `buffer_capacity` records), so a control loop
    /// can reuse its state, action and reward buffers every epoch.
    ///
    /// A prologue run ahead for this transition ([`prepare_step`](Self::prepare_step))
    /// is joined here and kept for the next [`train_step`](Self::train_step);
    /// one run ahead for another transition, or a refused one, is discarded.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::DimensionMismatch`] for a wrongly shaped
    /// transition and [`RlError::NonFinite`] for a non-finite state or
    /// reward; the buffer is unchanged in both cases.
    pub fn observe_parts(
        &mut self,
        states: &[Vec<f32>],
        actions: &[Vec<usize>],
        rewards: &[f32],
        next_states: &[Vec<f32>],
    ) -> Result<(), RlError> {
        if let Err(e) = self.check_transition((states, actions), rewards, next_states) {
            self.settle();
            return Err(e);
        }
        if !self.join_prologue(states, actions) {
            self.settle();
        }
        let slot = Arc::make_mut(&mut self.priorities).push();
        Arc::make_mut(&mut self.slab).write(slot, states, actions, rewards, next_states);
        if matches!(self.ahead, Ahead::Ready) {
            // What the prologue could not know, for its row patch.
            let patch = &mut self.step.patch;
            patch.x_next.resize_zeroed(1, self.slab.joint());
            pack_joint(next_states, patch.x_next.row_mut(0));
            patch.rewards.clear();
            patch.rewards.extend_from_slice(rewards);
        }
        self.telemetry
            .gauge_set("rl.buffer_len", self.priorities.len() as f64);
        Ok(())
    }

    /// The checks of [`observe_parts`](Self::observe_parts): shapes, action
    /// ranges and, counting a refusal, finite values.
    fn check_transition(
        &mut self,
        (states, actions): (&[Vec<f32>], &[Vec<usize>]),
        rewards: &[f32],
        next_states: &[Vec<f32>],
    ) -> Result<(), RlError> {
        self.check_states(states)?;
        self.check_states(next_states)?;
        if rewards.len() != self.config.agents {
            return Err(RlError::DimensionMismatch {
                detail: "transition actions/rewards shape".into(),
            });
        }
        self.check_actions(actions)?;
        // NaN guard: a corrupted observation must never enter the replay
        // buffer — one non-finite state or reward poisons every minibatch
        // it is sampled into.
        let finite_states = states
            .iter()
            .chain(next_states)
            .flatten()
            .all(|v| v.is_finite());
        if !finite_states || !rewards.iter().all(|r| r.is_finite()) {
            self.stats
                .bump(&self.telemetry, |s| &mut s.nonfinite_rejected);
            return Err(RlError::NonFinite {
                detail: "transition state or reward".into(),
            });
        }
        Ok(())
    }

    /// `K` action vectors of `D` actions, each within its branch.
    fn check_actions(&self, actions: &[Vec<usize>]) -> Result<(), RlError> {
        if actions.len() != self.config.agents
            || actions
                .iter()
                .any(|a| a.len() != self.config.branches.len())
        {
            return Err(RlError::DimensionMismatch {
                detail: "transition actions/rewards shape".into(),
            });
        }
        for (a, &n) in actions
            .iter()
            .flatten()
            .zip(actions.iter().flat_map(|_| &self.config.branches))
        {
            if *a >= n {
                return Err(RlError::DimensionMismatch {
                    detail: format!("action {a} out of range {n}"),
                });
            }
        }
        Ok(())
    }

    /// One gradient step on a prioritised minibatch (Algorithm 1 line 13).
    /// Returns `None` when the buffer has fewer than `batch_size`
    /// transitions.
    ///
    /// This is [`train_step_budgeted`](Self::train_step_budgeted) called
    /// until `Done`: the same prologue, head passes and epilogue, run back
    /// to back. Steady-state allocation-free: every
    /// tensor — joint states, head inputs, gradients, targets — lives in
    /// the reused step state. A budgeted step still in flight is aborted
    /// first: its partial gradients are discarded rather than mixed with a
    /// second minibatch.
    ///
    /// With `K > 1` on a machine that lets this process run two threads at
    /// once, the learner keeps one helper thread (started by its first step,
    /// joined on drop) and hands it the odd agents' share of the per-agent
    /// work: the double-DQN targets and the head passes, and the upper half
    /// of the Adam step. This thread adds every sum over agents
    /// in agent order and each agent's dropout draws come from where one
    /// thread would have drawn them, so weights, moments, priorities and RNG
    /// streams are bit-identical to running every agent here, which is what
    /// happens with one CPU or one agent. DESIGN.md §18 has the split.
    /// After a [`prepare_step`](Self::prepare_step) whose transition
    /// [`observe_parts`](Self::observe_parts) stored, the step starts from
    /// the prologue the helper ran meanwhile, with the same bits.
    ///
    /// # Errors
    ///
    /// Propagates replay-buffer errors.
    pub fn train_step(&mut self) -> Result<Option<TrainStats>, RlError> {
        if matches!(self.ahead, Ahead::Ready) {
            self.adopt_prologue();
        } else {
            self.settle();
            self.abort_budgeted_step();
            if !self.begin_step()? {
                return Ok(None);
            }
        }
        self.head_passes();
        Ok(Some(self.finish_step()))
    }

    /// Starts the prologue of the gradient step that will follow storing the
    /// transition that starts at `states` with `actions` (Algorithm 1 lines
    /// 10–13), on the helper thread, and returns: a control loop calls it
    /// once it has decided, and simulates the epoch meanwhile. The prologue
    /// draws its minibatch as [`train_step`](Self::train_step) would right
    /// after [`observe_parts`](Self::observe_parts) stored the transition,
    /// reading the pending states and actions for the slot the push will
    /// claim, and computes everything but the calling thread's agents'
    /// targets. It changes nothing the learner holds: the sample draws from
    /// a copy of the learner's stream, pictures the push without making it,
    /// and moves the trunk's dropout streams on a carrier of its own.
    ///
    /// `observe_parts` of that transition joins it, and the `train_step`
    /// right after uses it: it takes the stream, the β step and the dropout
    /// streams the prologue moved on, recomputes the targets of the rows
    /// that sampled the new slot from the reward and next state it did not
    /// know, and goes on as a step that sampled then. So weights, moments,
    /// priorities, RNG streams and every decision are bit-identical to not
    /// calling this at all. Every other entry point, and `observe_parts` of
    /// another transition, discards the prologue first: a post the helper
    /// has not taken does not run, one it has is waited for.
    ///
    /// Nothing runs ahead without a helper (one CPU, or `K = 1`), while a
    /// budgeted step is in flight, for a transition of the wrong shape, or
    /// when the buffer will not hold a batch after the push.
    pub fn prepare_step(&mut self, states: &[Vec<f32>], actions: &[Vec<usize>]) {
        self.settle();
        let batch = self.config.batch_size;
        if self.step.in_flight || self.priorities.len_after_push() < batch {
            return;
        }
        self.decide_helping();
        if !matches!(self.helping, Helping::With(_))
            || self.check_states(states).is_err()
            || self.check_actions(actions).is_err()
        {
            return;
        }
        let Helping::With(helper) = &mut self.helping else {
            return;
        };
        // A push that doubles the tree doubles it now, where a write may.
        Arc::make_mut(&mut self.priorities).grow_for_push();
        let warm = {
            let mut job = helper.job();
            let job = &mut *job;
            job.task = Task::Prologue;
            job.lent = Lent {
                sample: None,
                target: Some(Arc::clone(&self.target)),
                online: Some(Arc::clone(&self.online)),
                replay: Some((Arc::clone(&self.priorities), Arc::clone(&self.slab))),
            };
            let prologue = &mut job.prologue;
            prologue.rng.clone_from(&self.rng);
            prologue.states.resize(self.slab.joint(), 0.0);
            pack_joint(states, &mut prologue.states);
            prologue.actions.clear();
            prologue.actions.extend(actions.iter().flatten().map(|&a| {
                u16::try_from(a).expect("checked against a branch of at most 2^16 actions")
            }));
            std::mem::swap(&mut prologue.sample, &mut self.step.sample);
            std::mem::swap(&mut prologue.trunk_tape, &mut self.step.trunk_tape);
            job.warm[Task::Prologue.slot()]
        };
        // Until the prologue has run once, it runs on this thread when it
        // is joined, so that this thread sizes its buffers.
        if warm {
            helper.post();
        }
        self.ahead = Ahead::Posted { on_helper: warm };
    }

    /// Joins a prologue run ahead, from [`observe_parts`](Self::observe_parts)
    /// of `states` and `actions`, once they have passed its checks: waits
    /// for the helper (or runs an unwarmed job here) and takes the step
    /// state back. Returns whether the prologue pictured this transition;
    /// it is then [`Ahead::Ready`].
    fn join_prologue(&mut self, states: &[Vec<f32>], actions: &[Vec<usize>]) -> bool {
        let Ahead::Posted { on_helper } = self.ahead else {
            return false;
        };
        let Helping::With(helper) = &mut self.helping else {
            unreachable!("a prologue runs ahead on a helper's job");
        };
        let ran = if on_helper {
            helper.wait()
        } else {
            panic::catch_unwind(AssertUnwindSafe(|| helper.job().run()))
        };
        self.ahead = Ahead::Idle;
        let pictured = {
            let mut job = helper.job();
            let prologue = &mut job.prologue;
            std::mem::swap(&mut prologue.sample, &mut self.step.sample);
            std::mem::swap(&mut prologue.trunk_tape, &mut self.step.trunk_tape);
            let joint = states.iter().flatten();
            let same_states = joint
                .zip(&prologue.states)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            let acted = actions.iter().flatten();
            same_states
                && acted
                    .zip(&prologue.actions)
                    .all(|(&a, &b)| a == usize::from(b))
        };
        if let Err(payload) = ran {
            panic::resume_unwind(payload);
        }
        if pictured {
            self.ahead = Ahead::Ready;
        } else {
            self.stats
                .bump(&self.telemetry, |s| &mut s.prologues_discarded);
        }
        pictured
    }

    /// Discards a prologue run ahead, if there is one: a post the helper has
    /// not taken does not run, one it has is waited for, and the step state
    /// comes back. Nothing the learner holds changed, so nothing is undone.
    fn settle(&mut self) {
        let on_helper = match std::mem::take(&mut self.ahead) {
            Ahead::Idle => return,
            Ahead::Posted { on_helper } => Some(on_helper),
            Ahead::Ready => None,
        };
        self.stats
            .bump(&self.telemetry, |s| &mut s.prologues_discarded);
        let Some(on_helper) = on_helper else {
            return;
        };
        let Helping::With(helper) = &mut self.helping else {
            unreachable!("a prologue runs ahead on a helper's job");
        };
        let ran = if on_helper { helper.withdraw() } else { Ok(()) };
        {
            let mut job = helper.job();
            // What an untaken post still holds of the learner's.
            job.lent = Lent::default();
            let prologue = &mut job.prologue;
            std::mem::swap(&mut prologue.sample, &mut self.step.sample);
            std::mem::swap(&mut prologue.trunk_tape, &mut self.step.trunk_tape);
        }
        if let Err(payload) = ran {
            panic::resume_unwind(payload);
        }
    }

    /// The prologue of a step whose sample was drawn ahead: takes the
    /// stream, the β step and the trunk's dropout streams the prologue moved
    /// on, runs every agent's greedy actions and targets on the stages it
    /// left, split with the helper as in any step, and then
    /// [`patches`](Self::patch_rows) the rows that sampled the newest
    /// transition.
    fn adopt_prologue(&mut self) {
        self.ahead = Ahead::Idle;
        if self.config.quarantine.enabled {
            self.quarantine_readmit();
        }
        let Helping::With(helper) = &self.helping else {
            unreachable!("a prologue runs ahead on a helper's job");
        };
        let slot = {
            let job = helper.job();
            self.rng.clone_from(&job.prologue.rng);
            Arc::make_mut(&mut self.priorities).advance_anneal();
            let online = Arc::make_mut(&mut self.online);
            online.trunk.copy_streams_from(&job.prologue.streams);
            online.zero_grads();
            job.prologue.slot
        };
        self.step_targets(true);
        self.patch_rows(slot);
        self.stats.bump(&self.telemetry, |s| &mut s.prologues_ahead);
        self.start_sums();
    }

    /// Recomputes, for every agent, the targets of the minibatch rows that
    /// sampled `slot`, the newest transition, from the reward and next state
    /// that [`observe_parts`](Self::observe_parts) brought, and writes both
    /// into those rows. Rows are independent in every pass that reads
    /// `x_next` or the rewards, so a row's targets are the same bits whether
    /// its pass had other rows or none; `x`, the actions and the importance
    /// weights were known when the sample was drawn, so nothing else needs a
    /// patch.
    fn patch_rows(&mut self, slot: usize) {
        let shape = Shape::of(&self.config);
        let StepState {
            sample,
            lane,
            trunk_tape,
            patch,
            ..
        } = &mut self.step;
        let sample = Arc::make_mut(sample);
        let rows = sample
            .batch
            .indices
            .iter()
            .filter(|&&idx| idx == slot)
            .count();
        if rows == 0 {
            return;
        }
        let one = Shape { batch: 1, ..shape };
        for (i, net) in [&*self.online, &*self.target].into_iter().enumerate() {
            let Sample { x_next, stage, .. } = &mut *patch;
            net.eval_shared(x_next, trunk_tape, stage);
            for k in 0..shape.agents {
                match i {
                    0 => lane.greedy(net, patch, (k, false), one),
                    _ => lane.targets(net, patch, (k, false), one),
                }
            }
        }
        let agents = shape.agents;
        for (b, &idx) in sample.batch.indices.iter().enumerate() {
            if idx == slot {
                let at = b * agents..(b + 1) * agents;
                sample.targets[at.clone()].copy_from_slice(&lane.targets[..agents]);
                sample.rewards[at].copy_from_slice(&patch.rewards);
                sample
                    .x_next
                    .row_mut(b)
                    .copy_from_slice(patch.x_next.row(0));
            }
        }
        let recomputed = LearnerStats {
            rows_recomputed: rows as u64,
            ..LearnerStats::default()
        };
        self.stats.add(&recomputed, &self.telemetry);
    }

    /// Whether a budgeted gradient step is currently in flight (started by
    /// [`train_step_budgeted`](Self::train_step_budgeted) but not yet
    /// `Done`).
    pub fn budgeted_step_in_flight(&self) -> bool {
        self.step.in_flight
    }

    /// Drops any in-flight budgeted step, zeroing its partial gradients.
    /// Called by every operation that would invalidate the deferred state
    /// (a full [`train_step`](Self::train_step), a checkpoint restore, a
    /// transfer reset). The advantage heads' dropout streams are left where
    /// the head passes run so far leave them.
    fn abort_budgeted_step(&mut self) {
        if self.step.in_flight {
            self.step.in_flight = false;
            Arc::make_mut(&mut self.online).zero_grads();
        }
    }

    /// [`train_step`](Self::train_step) split into resumable chunks for
    /// deadline-aware scheduling: each call runs one agent's head pass, on
    /// this thread, then returns, so a `K`-agent step takes `K` calls. The
    /// first call samples the minibatch, computes targets and runs the
    /// trunk forward; the call that finishes the last agent also runs the
    /// epilogue (gradient rescaling, trunk backward, NaN guard, clip, Adam,
    /// priority write-back, target sync, quarantine scan) and returns
    /// [`BudgetedProgress::Done`]. The prologue's targets and the
    /// epilogue's Adam step use the helper thread as a whole step does.
    ///
    /// Between chunk calls the caller may freely decide
    /// ([`select_actions`](Self::select_actions) /
    /// [`q_values`](Self::q_values), their unfused siblings and
    /// [`select_actions_greedy_into`](Self::select_actions_greedy_into)) and [`observe`](Self::observe): decisions are stateless
    /// forwards on their own scratch, and the step owns copies of what a
    /// replay overwrite could change. A step driven to completion is the
    /// same code in the same order as one [`train_step`](Self::train_step),
    /// so weights, optimizer state, RNG streams and replay priorities come
    /// out **bit-identical** — `tests/budgeted_training.rs` holds that
    /// against every decide path — and it is allocation-free in steady
    /// state all the same.
    ///
    /// A [`train_step`](Self::train_step), checkpoint restore or transfer
    /// reset while a step is in flight aborts the partial step (its
    /// gradients are discarded; no weights were touched).
    ///
    /// # Errors
    ///
    /// Propagates replay-buffer errors from the initial sample.
    pub fn train_step_budgeted(&mut self) -> Result<BudgetedProgress, RlError> {
        self.settle();
        if !self.step.in_flight && !self.begin_step()? {
            return Ok(BudgetedProgress::NotReady);
        }
        let (agents, k) = (self.config.agents, self.step.next_agent);
        let pass = (Shape::of(&self.config), k, false, self.is_live(k));
        self.step.head_pass(Arc::make_mut(&mut self.online), pass);
        self.step.next_agent = k + 1;
        if k + 1 < agents {
            return Ok(BudgetedProgress::InProgress {
                agents_done: k + 1,
                agents_total: agents,
            });
        }
        Ok(BudgetedProgress::Done(self.finish_step()))
    }

    /// Keeps every agent on the calling thread from now on; joins the
    /// helper.
    #[cfg(test)]
    fn train_serially(&mut self) {
        self.helping = Helping::Alone;
    }

    /// Whether agent `k` trains this step: quarantine has not frozen it.
    fn is_live(&self, k: usize) -> bool {
        !self.config.quarantine.enabled || self.guards[k].frozen_until == 0
    }

    /// Starts the helper on the first step that can use one: `K > 1` and
    /// two CPUs this process may run on at once.
    fn decide_helping(&mut self) {
        if !matches!(self.helping, Helping::Undecided) {
            return;
        }
        let job =
            (self.config.agents > 1 && two_cpus()).then(|| Share::new(&self.config, &self.online));
        self.helping = match job.and_then(|job| Helper::spawn("twig-learn", job)) {
            Some(helper) => Helping::With(helper),
            None => Helping::Alone,
        };
    }

    /// Prologue of the gradient step: re-admits agents out of probation,
    /// samples the minibatch, packs states, actions and rewards out of the
    /// replay buffer, computes double-DQN targets, zeroes gradients and runs
    /// the train-mode trunk forward. Returns `false` (nothing started) when
    /// the buffer is below `batch_size`.
    fn begin_step(&mut self) -> Result<bool, RlError> {
        let batch_size = self.config.batch_size;
        if self.priorities.len() < batch_size {
            return Ok(false);
        }
        if self.config.quarantine.enabled {
            self.quarantine_readmit();
        }
        self.decide_helping();
        let sample = Arc::make_mut(&mut self.step.sample);
        Arc::make_mut(&mut self.priorities).sample_into(
            batch_size,
            &mut self.rng,
            &mut sample.batch,
        )?;
        sample.gather(&self.slab, None);
        self.step_targets(false);

        let online = Arc::make_mut(&mut self.online);
        online.zero_grads();
        let step = &mut self.step;
        let sample = Arc::make_mut(&mut step.sample);
        let trunk = online.trunk.on(&mut step.trunk_tape);
        let prefixed = self.config.agents > 1;
        train_stage(
            trunk,
            (&online.adv_heads, prefixed),
            &sample.x,
            &mut sample.stage,
        );
        self.start_sums();
        Ok(true)
    }

    /// Zeroes the sums a step's head passes add to, sized for its batch, and
    /// puts the step in flight at its first agent.
    fn start_sums(&mut self) {
        let (batch_size, agents) = (self.config.batch_size, self.config.agents);
        let step = &mut self.step;
        let sums = &mut step.sums;
        let trunk_dim = step.sample.stage.trunk_out.cols();
        sums.trunk_grad.resize_zeroed(batch_size, trunk_dim);
        if agents > 1 {
            let branches = self.config.branches.len();
            sums.adv_first_grad.resize_with(branches, Tensor::default);
            for sum in &mut sums.adv_first_grad {
                sum.resize_zeroed(batch_size, self.config.head_hidden);
            }
        }
        sums.abs_td.clear();
        sums.abs_td.resize(batch_size, 0.0);
        sums.loss = 0.0;
        step.agent_td.clear();
        step.agent_td.resize(agents, 0.0);
        step.agent_vgrad.clear();
        step.agent_vgrad.resize(agents, 0.0);
        step.next_agent = 0;
        step.in_flight = true;
    }

    /// The double-DQN targets of the sampled batch, averaged over branches,
    /// into `sample.targets`: each agent's greedy actions on the next states
    /// under the online network ([`Lane::greedy`]), then the target
    /// network's values there ([`Lane::targets`]), each pass on its
    /// network's first stage of `x_next`, computed here into `stage` just
    /// before it, or `ahead` into `next_stages`. A helper takes the odd
    /// agents. An agent's targets are the same arithmetic on either thread,
    /// and no agent's depend on another's.
    fn step_targets(&mut self, ahead: bool) {
        let shape = Shape::of(&self.config);
        let MaBdq {
            online,
            target,
            step,
            helping,
            ..
        } = self;
        let StepState {
            sample,
            lane,
            trunk_tape,
            ..
        } = step;
        let stride = match helping {
            Helping::With(_) => 2,
            _ => 1,
        };
        let rounds: &[Passes] = if ahead {
            &[Passes::Ahead]
        } else {
            &[Passes::Greedy, Passes::Targets]
        };
        for &passes in rounds {
            if !ahead {
                let net = if passes == Passes::Greedy {
                    &**online
                } else {
                    &**target
                };
                let Sample { x_next, stage, .. } = Arc::make_mut(sample);
                // The trunk's evaluation forwards run on the trunk's tape,
                // idle until the train-mode forward: the lane's evaluation
                // tape then never grows to the trunk's width.
                net.eval_shared(x_next, trunk_tape, stage);
            }
            let nets = (&**online, &**target);
            let mut mine = || {
                for k in (0..shape.agents).step_by(stride) {
                    lane.target_passes(passes, nets, sample, k, shape);
                }
            };
            match helping {
                Helping::With(helper) => {
                    let lent = Lent {
                        sample: Some(Arc::clone(sample)),
                        online: Some(Arc::clone(online)),
                        target: Some(Arc::clone(target)),
                        replay: None,
                    };
                    post(helper, Task::Targets { passes }, lent, mine).resume();
                }
                _ => mine(),
            }
        }
        let theirs = match helping {
            Helping::With(helper) => Some(helper.job()),
            _ => None,
        };
        let theirs = theirs.as_ref().map(|job| &job.lane.targets[..]);
        let sample = Arc::make_mut(sample);
        merge_targets(&mut sample.targets, &lane.targets, theirs, shape.agents);
    }

    /// The head passes of a whole step. With a helper, the even agents run
    /// here and each odd one on the helper at the same time as the agent
    /// before it; the helper's agent's [`AgentSums`] and head gradients are
    /// then added here, after this thread's agent and before its next, so
    /// every sum over agents is taken in agent order. Each side's dropout
    /// streams skip the other side's previous agent if it is live, and the
    /// online streams finally skip the last agent if the helper ran it.
    fn head_passes(&mut self) {
        let shape = Shape::of(&self.config);
        let MaBdq {
            config,
            online,
            step,
            helping,
            guards,
            ..
        } = self;
        let online = Arc::make_mut(online);
        let live = |k: usize| !config.quarantine.enabled || guards[k].frozen_until == 0;
        let Helping::With(helper) = helping else {
            for k in 0..shape.agents {
                step.head_pass(online, (shape, k, false, live(k)));
            }
            return;
        };
        for k in (0..shape.agents).step_by(2) {
            let pass = (shape, k, k > 0 && live(k - 1), live(k));
            let theirs = k + 1;
            if theirs == shape.agents {
                step.head_pass(online, pass);
                return;
            }
            let swap_vh = |job: &mut Share, online: &mut Net| {
                let vh = &mut job.online.value_heads[theirs];
                std::mem::swap(vh, &mut online.value_heads[theirs]);
            };
            swap_vh(&mut helper.job(), online);
            let task = Task::Head {
                agent: theirs,
                skip: live(k),
                live: live(theirs),
            };
            let lent = Lent {
                sample: Some(Arc::clone(&step.sample)),
                ..Lent::default()
            };
            let finished = post(helper, task, lent, || step.head_pass(online, pass));
            {
                let mut job = helper.job();
                let job = &mut *job;
                swap_vh(job, online);
                if live(theirs) {
                    // The helper's agent, in order: its sums, its gradients.
                    job.agent_sums.replay(shape.batch, &mut step.sums);
                    let copies = &job.online.adv_heads;
                    for (head, copy) in online.adv_heads.iter_mut().zip(copies) {
                        head.add_gradients(copy.gradients());
                    }
                    (step.agent_td[theirs], step.agent_vgrad[theirs]) = job.signals;
                }
            }
            finished.resume();
        }
        skip_an_agent(&mut online.adv_heads, live(shape.agents - 1), shape);
    }

    /// Epilogue of the gradient step: the trunk side of the shared
    /// advantage heads' first layers, Section III-A rescaling, trunk
    /// backward, NaN guard, clipping, Adam, priority write-back, target sync
    /// and quarantine scan.
    fn finish_step(&mut self) -> TrainStats {
        let batch_size = self.config.batch_size;
        let agents = self.config.agents;
        let num_branches = self.config.branches.len();
        self.step.in_flight = false;
        let MaBdq { online, step, .. } = self;
        let online = Arc::make_mut(online);
        let StepState {
            sample,
            lane,
            trunk_tape,
            sums,
            ..
        } = step;

        // With `K > 1`, per branch: the weight rows that see `trunk_out`
        // take `trunk_outᵀ · Σ_k G_k`, and `trunk_grad` takes `Σ_k G_k ·
        // W_trunkᵀ`, one product each for all agents.
        if agents > 1 {
            let heads = online.adv_heads.iter_mut();
            for (head, sum) in heads.zip(&sums.adv_first_grad) {
                let gin = head
                    .on(&mut lane.eval.tape)
                    .backward_prefix_scratch(&sample.stage.trunk_out, sum);
                sums.trunk_grad.add_assign(gin).expect("same shape");
            }
        }

        // 1/K into the deepest advantage layers, 1/D into the shared
        // representation.
        for head in online.adv_heads.iter_mut() {
            head.scale_grads(1.0 / agents as f32);
        }
        sums.trunk_grad.scale(1.0 / num_branches as f32);
        // The trunk's input is data: nobody reads a gradient for it.
        online
            .trunk
            .on(trunk_tape)
            .backward_cols_scratch(&sums.trunk_grad, 0);

        let loss = sums.loss;
        let mean_abs_td = (sums.abs_td.iter().sum::<f64>() / batch_size as f64) as f32;
        let grad_norm = online.grad_sq_norm().sqrt();
        // NaN guard: a numerically blown-up minibatch (non-finite loss or
        // gradients) must not reach the weights — one bad Adam step can
        // permanently poison the network. Skip the update and report it.
        let skipped = !loss.is_finite() || !grad_norm.is_finite();
        if skipped {
            online.zero_grads();
            self.stats.bump(&self.telemetry, |s| &mut s.skipped_steps);
        } else {
            // Global-norm clipping, then Adam.
            if grad_norm > GRAD_CLIP {
                online.scale_all_grads(GRAD_CLIP / grad_norm);
            }
            self.apply_adam();
            Arc::make_mut(&mut self.priorities)
                .update_priorities(&self.step.sample.batch.indices, &self.step.sums.abs_td);
            self.stats.bump(&self.telemetry, |s| &mut s.steps);
            if self
                .stats
                .steps
                .is_multiple_of(self.config.target_update_every)
            {
                Arc::make_mut(&mut self.target).copy_weights_from(&self.online);
            }
        }
        // The scan runs on skipped steps too: the agent whose TD blew up
        // trips and freezes here, so subsequent minibatch losses become
        // finite again and the other K−1 agents resume training instead of
        // being starved by the global guard forever.
        self.quarantine_scan();
        let stats = TrainStats {
            loss,
            mean_abs_td,
            grad_norm,
            skipped,
        };
        self.record_train_stats(&stats);
        stats
    }

    /// One Adam step over every online arena: the lower part here, the upper
    /// part on the helper, which gets its value heads, the advantage heads
    /// and the upper optimiser moved in for the run. A quarantine-frozen head
    /// steps on its zero gradient.
    fn apply_adam(&mut self) {
        let MaBdq {
            online,
            adam,
            helping,
            ..
        } = self;
        let online = Arc::make_mut(online);
        adam.size();
        let split = adam.split;
        let Helping::With(helper) = helping else {
            adam_update(&mut adam.lower, online.lower_mlps(split));
            adam_update(&mut adam.upper, online.upper_mlps(split));
            return;
        };
        let swap = |job: &mut Share, online: &mut Net, adam: &mut SplitAdam| {
            std::mem::swap(&mut job.adam, &mut adam.upper);
            std::mem::swap(&mut job.online.adv_heads, &mut online.adv_heads);
            let heads = job.online.value_heads[split..].iter_mut();
            for (theirs, mine) in heads.zip(&mut online.value_heads[split..]) {
                std::mem::swap(theirs, mine);
            }
        };
        swap(&mut helper.job(), online, adam);
        let lower = &mut adam.lower;
        let finished = post(helper, Task::Adam { split }, Lent::default(), || {
            adam_update(lower, online.lower_mlps(split));
        });
        swap(&mut helper.job(), online, adam);
        finished.resume();
    }

    /// Feeds one gradient step's diagnostics into the attached telemetry
    /// handle. No-op when telemetry is disabled.
    fn record_train_stats(&self, stats: &TrainStats) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let tl = &self.telemetry;
        // LogHistogram drops non-finite samples itself, so a blown-up loss
        // is counted but cannot poison the digest.
        tl.record("rl.loss", stats.loss as f64);
        tl.record("rl.td_error", stats.mean_abs_td as f64);
        tl.record("rl.grad_norm", stats.grad_norm as f64);
        tl.gauge_set("rl.buffer_len", self.priorities.len() as f64);
    }

    /// Transfer learning (Section IV): re-initialise the final (most
    /// task-specific) layer of every head with random weights, reset the
    /// optimiser state and re-sync the target network. The trunk's learned
    /// shared representation is kept.
    pub fn transfer_reset(&mut self) {
        self.settle();
        self.abort_budgeted_step();
        let online = Arc::make_mut(&mut self.online);
        for head in online
            .value_heads
            .iter_mut()
            .chain(online.adv_heads.iter_mut())
        {
            head.reinitialize_last_dense(&mut self.rng);
        }
        self.adam.reset_state();
        Arc::make_mut(&mut self.target).copy_weights_from(&self.online);
    }

    /// The online trunk's parameter arena, weights and biases (for
    /// transfer-learning tests).
    pub fn trunk_weights(&self) -> &[f32] {
        self.online.trunk.parameters()
    }

    /// Whether a checkpoint's optimiser slots fit this learner. The frame's
    /// integrity check says nothing about what they mean, and moments that
    /// do not fit the parameters panic in the next train step. So: either
    /// no moments (no step yet, or a transfer reset) or one slot per tensor,
    /// ids `0..n` in [`Net::mlps`] order, each as long as its tensor, all
    /// with the one step count the optimiser keeps.
    fn moments_fit(&self, slots: &[MomentSlot]) -> Result<(), String> {
        let Some(first) = slots.first() else {
            return Ok(());
        };
        let lens: Vec<usize> = self.online.mlps().flat_map(Mlp::parameter_lens).collect();
        if slots.len() != lens.len() {
            let n = lens.len();
            return Err(format!(
                "{} optimizer slots for {n} parameter tensors",
                slots.len()
            ));
        }
        for ((at, s), &len) in slots.iter().enumerate().zip(&lens) {
            if (s.id, s.steps, s.m.len(), s.v.len()) != (at, first.steps, len, len) {
                return Err(format!(
                    "optimizer slot {at} has id {}, {} steps and {} + {} moments; \
                     want id {at}, slot 0's {} steps and {len} + {len}",
                    s.id,
                    s.steps,
                    s.m.len(),
                    s.v.len(),
                    first.steps
                ));
            }
        }
        Ok(())
    }

    /// Snapshots the full learner state into a structured
    /// [`MaBdqCheckpoint`]: architecture fingerprint, flat online
    /// parameters (trunk, value heads, advantage heads, in order), Adam
    /// moments, step counters, PER anneal state and priorities. Serialize
    /// with [`encode_checkpoint`](crate::encode_checkpoint); restore with
    /// [`load_checkpoint`](Self::load_checkpoint) on an agent built from
    /// the same configuration.
    ///
    /// The RNG stream and buffered transitions are deliberately *not*
    /// checkpointed: a restored process starts with an empty buffer and a
    /// fresh exploration stream, so post-restore trajectories legitimately
    /// differ from an uninterrupted run.
    pub fn save_checkpoint(&self) -> MaBdqCheckpoint {
        let mut params = Vec::with_capacity(self.param_count());
        for mlp in self.online.mlps() {
            params.extend_from_slice(mlp.parameters());
        }
        // The v1 frame's per-tensor slots, cut from the flat moments.
        let mut moments = self.adam.moments();
        let mut slots = Vec::new();
        if self.adam.is_sized() {
            let lens = self.online.mlps().flat_map(Mlp::parameter_lens);
            for (id, len) in lens.enumerate() {
                let (m, v) = moments.by_ref().take(len).unzip();
                slots.push(MomentSlot {
                    id,
                    steps: self.adam.steps(),
                    m,
                    v,
                });
            }
        }
        MaBdqCheckpoint {
            agents: self.config.agents,
            state_dim: self.config.state_dim,
            branches: self.config.branches.clone(),
            trunk_hidden: self.config.trunk_hidden.clone(),
            head_hidden: self.config.head_hidden,
            params,
            adam: Moments { slots },
            steps: self.stats.steps,
            skipped_steps: self.stats.skipped_steps,
            per_step: self.priorities.anneal_step(),
            per_max_priority: self.priorities.max_priority(),
            priorities: self.priorities.priorities(),
        }
    }

    /// Restores the full learner state from a checkpoint produced by
    /// [`save_checkpoint`](Self::save_checkpoint): online network, Adam
    /// moments, step counters and PER anneal state; the target network is
    /// re-synced to the restored online weights. Quarantine guards are
    /// rebuilt with fresh snapshots of the restored heads.
    ///
    /// Replay priorities are restored for however many transitions the
    /// live buffer holds — after a crash the buffer restarts empty, so the
    /// priority vector typically applies only once the buffer refills.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::CheckpointMismatch`] when the checkpoint's
    /// recorded architecture (agents, state dim, branches, trunk, head
    /// width), parameter count, or optimizer-moment layout does not match
    /// this agent, or when a replay priority is NaN, infinite or negative.
    /// Nothing is restored in that case.
    pub fn load_checkpoint(&mut self, ckpt: &MaBdqCheckpoint) -> Result<(), RlError> {
        let mismatch = |detail: String| Err(RlError::CheckpointMismatch { detail });
        let c = &self.config;
        if ckpt.agents != c.agents
            || ckpt.state_dim != c.state_dim
            || ckpt.branches != c.branches
            || ckpt.trunk_hidden != c.trunk_hidden
            || ckpt.head_hidden != c.head_hidden
        {
            return mismatch(format!(
                "checkpoint shape ({} agents, state {}, branches {:?}, trunk {:?}, head {}) \
                 does not match config ({} agents, state {}, branches {:?}, trunk {:?}, head {})",
                ckpt.agents,
                ckpt.state_dim,
                ckpt.branches,
                ckpt.trunk_hidden,
                ckpt.head_hidden,
                c.agents,
                c.state_dim,
                c.branches,
                c.trunk_hidden,
                c.head_hidden,
            ));
        }
        if ckpt.params.len() != self.param_count() {
            return mismatch(format!(
                "checkpoint has {} parameters, agent has {}",
                ckpt.params.len(),
                self.param_count()
            ));
        }
        if let Err(detail) = self.moments_fit(&ckpt.adam.slots) {
            return mismatch(detail);
        }
        // A sampling weight is `(|td| + ε)^α`: finite, never negative. A NaN or
        // infinite one makes the sum tree's total non-finite, and every step
        // after the restore would sample, go non-finite and be skipped
        // without a word; a negative one is a probability below zero.
        if let Some((at, p)) = ckpt
            .priorities
            .iter()
            .enumerate()
            .find(|(_, p)| !(p.is_finite() && **p >= 0.0))
        {
            return mismatch(format!("replay priority {at} is {p}"));
        }
        // Validation passed — the restore proceeds, so any half-finished
        // budgeted step, or prologue run ahead, is now meaningless.
        self.settle();
        self.abort_budgeted_step();
        let mut offset = 0;
        for mlp in Arc::make_mut(&mut self.online).mlps_mut() {
            let n = mlp.param_count();
            mlp.import_parameters(&ckpt.params[offset..offset + n])
                .expect("length checked");
            offset += n;
        }
        // The slots fit, so they concatenate into the flat moments: the
        // lower part's, then the upper part's.
        let slots = &ckpt.adam.slots;
        match slots.first() {
            None => self.adam.reset_state(),
            Some(first) => {
                let SplitAdam {
                    lower, upper, lens, ..
                } = &mut self.adam;
                let (m0, v0) = lower.restore(first.steps, lens.0);
                let (m1, v1) = upper.restore(first.steps, lens.1);
                let m = m0.iter_mut().chain(m1.iter_mut());
                for (dst, &src) in m.zip(slots.iter().flat_map(|s| &s.m)) {
                    *dst = src;
                }
                let v = v0.iter_mut().chain(v1.iter_mut());
                for (dst, &src) in v.zip(slots.iter().flat_map(|s| &s.v)) {
                    *dst = src;
                }
            }
        }
        self.stats.steps = ckpt.steps;
        self.stats.skipped_steps = ckpt.skipped_steps;
        let priorities = Arc::make_mut(&mut self.priorities);
        priorities.set_anneal_step(ckpt.per_step);
        priorities.set_max_priority(ckpt.per_max_priority);
        priorities.restore_priorities(&ckpt.priorities);
        Arc::make_mut(&mut self.target).copy_weights_from(&self.online);
        self.rebuild_guards();
        Ok(())
    }
}

/// A step's targets, `b * agents + k`: this thread's lane's, with the odd
/// agents' taken from the helper's lane when it ran them.
fn merge_targets(targets: &mut Vec<f32>, mine: &[f32], theirs: Option<&[f32]>, agents: usize) {
    targets.clear();
    targets.extend_from_slice(mine);
    if let Some(theirs) = theirs {
        let rows = theirs.chunks_exact(agents);
        for (mine, theirs) in targets.chunks_exact_mut(agents).zip(rows) {
            for k in (1..agents).step_by(2) {
                mine[k] = theirs[k];
            }
        }
    }
}

fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in row.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_stats::helper::two_cpus;

    fn tiny_config(agents: usize) -> MaBdqConfig {
        MaBdqConfig {
            agents,
            state_dim: 2,
            branches: vec![3, 2],
            trunk_hidden: vec![24, 16],
            head_hidden: 16,
            dropout: 0.0,
            lr: 0.01,
            gamma: 0.0,
            batch_size: 16,
            target_update_every: 20,
            buffer_capacity: 4096,
            seed: 42,
            ..MaBdqConfig::default()
        }
    }

    #[test]
    fn config_validation() {
        for bad in [
            MaBdqConfig {
                agents: 0,
                ..tiny_config(1)
            },
            MaBdqConfig {
                state_dim: 0,
                ..tiny_config(1)
            },
            MaBdqConfig {
                branches: vec![],
                ..tiny_config(1)
            },
            MaBdqConfig {
                branches: vec![3, 0],
                ..tiny_config(1)
            },
            MaBdqConfig {
                trunk_hidden: vec![],
                ..tiny_config(1)
            },
            MaBdqConfig {
                dropout: 1.0,
                ..tiny_config(1)
            },
            MaBdqConfig {
                gamma: 1.5,
                ..tiny_config(1)
            },
            MaBdqConfig {
                batch_size: 0,
                ..tiny_config(1)
            },
        ] {
            assert!(MaBdq::new(bad).is_err());
        }
        // More slots than a record's `u32` link can name (where `usize` can).
        if let Ok(buffer_capacity) = usize::try_from(1u64 << 32) {
            assert!(MaBdq::new(MaBdqConfig {
                buffer_capacity,
                ..tiny_config(1)
            })
            .is_err());
        }
    }

    #[test]
    fn action_shapes_and_ranges() {
        let mut agent = MaBdq::new(tiny_config(3)).unwrap();
        let states = vec![vec![0.0, 0.0]; 3];
        for eps in [0.0, 0.5, 1.0] {
            let acts = agent.select_actions(&states, eps).unwrap();
            assert_eq!(acts.len(), 3);
            for a in &acts {
                assert_eq!(a.len(), 2);
                assert!(a[0] < 3 && a[1] < 2);
            }
        }
    }

    #[test]
    fn rejects_wrong_state_shape() {
        let mut agent = MaBdq::new(tiny_config(2)).unwrap();
        assert!(agent.select_actions(&[vec![0.0, 0.0]], 0.0).is_err());
        assert!(agent
            .select_actions(&[vec![0.0], vec![0.0, 0.0]], 0.0)
            .is_err());
    }

    #[test]
    fn observe_validates_transition() {
        let mut agent = MaBdq::new(tiny_config(1)).unwrap();
        let good = MultiTransition {
            states: vec![vec![0.0, 0.0]],
            actions: vec![vec![1, 1]],
            rewards: vec![1.0],
            next_states: vec![vec![0.0, 0.0]],
        };
        agent.observe(good.clone()).unwrap();
        let bad_action = MultiTransition {
            actions: vec![vec![5, 0]],
            ..good.clone()
        };
        assert!(agent.observe(bad_action).is_err());
        let bad_reward = MultiTransition {
            rewards: vec![],
            ..good
        };
        assert!(agent.observe(bad_reward).is_err());
    }

    #[test]
    fn observe_rejects_non_finite_transitions() {
        let mut agent = MaBdq::new(tiny_config(1)).unwrap();
        let good = MultiTransition {
            states: vec![vec![0.0, 0.0]],
            actions: vec![vec![1, 1]],
            rewards: vec![1.0],
            next_states: vec![vec![0.0, 0.0]],
        };
        let nan_state = MultiTransition {
            states: vec![vec![f32::NAN, 0.0]],
            ..good.clone()
        };
        let inf_next = MultiTransition {
            next_states: vec![vec![0.0, f32::INFINITY]],
            ..good.clone()
        };
        let nan_reward = MultiTransition {
            rewards: vec![f32::NAN],
            ..good.clone()
        };
        for bad in [nan_state, inf_next, nan_reward] {
            assert!(matches!(agent.observe(bad), Err(RlError::NonFinite { .. })));
        }
        assert_eq!(agent.buffer_len(), 0, "nothing poisoned the buffer");
        agent.observe(good).unwrap();
        assert_eq!(agent.buffer_len(), 1);
    }

    /// How a generated transition's `states` relate to the `next_states` of
    /// the transition observed before it.
    #[derive(Debug, Clone, Copy)]
    enum Follow {
        /// Unrelated: every transition is drawn afresh.
        Random,
        /// Every transition starts from its predecessor's next state.
        Chained,
        /// Chained, but every n-th push starts afresh.
        BreakEvery(usize),
        /// Chained, but the push into this slot (from the ring's end: 0 is
        /// slot 0, 1 the last slot, the one that wraps) starts afresh.
        BreakAtSlotFromEnd(usize),
        /// Every next state holds a `-0.0`; every other push starts from it
        /// exactly, the rest from the same numbers with `+0.0` in its place.
        SignedZero,
    }

    /// A joint state as the slab lays it out (`rows.concat()`), for
    /// comparing bit for bit.
    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn replay_records_round_trip_the_nested_transition() {
        // The buffer this replaced kept each `MultiTransition` as it came,
        // in a ring of `buffer_capacity` slots; `model` is that ring. Every
        // record must read back the transition the ring holds in its slot
        // bit for bit — whether its next state sits in the tail row, in its
        // successor or in the orphan table — through wrap-around, and a
        // rejected transition must change nothing and fail the way it
        // always did.
        let mut rng = Xoshiro256::seed_from_u64(0x51ab);
        let mut shapes = vec![
            (1usize, 2usize, vec![3usize, 2], 7usize),
            (3, 5, vec![18, 9], 50),
            (24, 11, vec![18, 9, 4], 33),
            (2, 1, vec![65_536], 4),
        ];
        shapes.extend([1, 2, 4, 7, 50].map(|capacity| (2, 3, vec![4, 3], capacity)));
        let follows = [
            Follow::Random,
            Follow::Chained,
            Follow::BreakEvery(3),
            Follow::BreakAtSlotFromEnd(0),
            Follow::BreakAtSlotFromEnd(1),
            Follow::SignedZero,
        ];
        for (agents, state_dim, branches, capacity) in shapes {
            for follow in follows {
                round_trip(&mut rng, agents, state_dim, &branches, capacity, follow);
            }
        }
        // One action more than a record's `u16` can index is a config error.
        assert!(MaBdq::new(MaBdqConfig {
            branches: vec![65_537],
            ..tiny_config(1)
        })
        .is_err());
    }

    fn round_trip(
        rng: &mut Xoshiro256,
        agents: usize,
        state_dim: usize,
        branches: &[usize],
        capacity: usize,
        follow: Follow,
    ) {
        let context = format!("K = {agents}, S = {state_dim}, capacity {capacity}, {follow:?}");
        let mut agent = MaBdq::new(MaBdqConfig {
            agents,
            state_dim,
            branches: branches.to_vec(),
            buffer_capacity: capacity,
            ..tiny_config(agents)
        })
        .unwrap();
        let mut model: Vec<MultiTransition> = Vec::new();
        let mut newest = 0;
        let mut breaks = 0;
        let pushes = 3 * capacity + 5;
        let fresh = |rng: &mut Xoshiro256| -> Vec<Vec<f32>> {
            (0..agents)
                .map(|_| {
                    (0..state_dim)
                        .map(|_| rng.range_f64(-4.0, 4.0) as f32)
                        .collect()
                })
                .collect()
        };
        // Whether push `i > 0` starts somewhere else than push `i - 1` ended.
        let breaks_at = |i: usize| match follow {
            Follow::Random => true,
            Follow::Chained => false,
            Follow::BreakEvery(n) => i.is_multiple_of(n),
            Follow::BreakAtSlotFromEnd(back) => i % capacity == (capacity - back) % capacity,
            Follow::SignedZero => i.is_multiple_of(2),
        };
        for i in 0..pushes {
            let slot = i % capacity;
            let tail = (i > 0).then(|| model[newest].next_states.clone());
            let states = match tail {
                Some(tail) if !breaks_at(i) => tail,
                Some(mut tail) if matches!(follow, Follow::SignedZero) => {
                    assert_eq!(tail[0][0].to_bits(), (-0.0f32).to_bits());
                    tail[0][0] = 0.0;
                    tail
                }
                _ => fresh(rng),
            };
            let mut next_states = fresh(rng);
            if matches!(follow, Follow::SignedZero) {
                next_states[0][0] = -0.0;
            }
            let good = MultiTransition {
                states,
                // The last transition takes every branch's last action.
                actions: (0..agents)
                    .map(|_| {
                        branches
                            .iter()
                            .map(|&n| {
                                if i == pushes - 1 {
                                    n - 1
                                } else {
                                    rng.range_usize(0, n)
                                }
                            })
                            .collect()
                    })
                    .collect(),
                rewards: (0..agents)
                    .map(|_| rng.range_f64(-1e3, 1e3) as f32)
                    .collect(),
                next_states,
            };
            let mut bad = good.clone();
            let k = rng.range_usize(0, agents);
            let want = match i % 8 {
                0 => {
                    bad.states[k].push(0.0);
                    format!("expected {agents} agents x {state_dim} dims")
                }
                1 => {
                    bad.next_states.pop();
                    format!("expected {agents} agents x {state_dim} dims")
                }
                2 => {
                    bad.actions[k].pop();
                    "transition actions/rewards shape".to_string()
                }
                3 => {
                    bad.rewards.push(0.0);
                    "transition actions/rewards shape".to_string()
                }
                4 => {
                    let d = rng.range_usize(0, branches.len());
                    bad.actions[k][d] = branches[d];
                    format!("action {} out of range {}", branches[d], branches[d])
                }
                5 => {
                    bad.states[k][0] = f32::NAN;
                    "transition state or reward".to_string()
                }
                6 => {
                    bad.next_states[k][state_dim - 1] = f32::NEG_INFINITY;
                    "transition state or reward".to_string()
                }
                _ => {
                    bad.rewards[k] = f32::INFINITY;
                    "transition state or reward".to_string()
                }
            };
            // Links, tail row, orphan table and free list included.
            let before = format!("{:?}", agent.slab);
            match agent.observe(bad).unwrap_err() {
                RlError::DimensionMismatch { detail } if i % 8 < 5 => assert_eq!(detail, want),
                RlError::NonFinite { detail } if i % 8 >= 5 => assert_eq!(detail, want),
                other => panic!("case {}: {other:?}", i % 8),
            }
            assert_eq!(
                agent.buffer_len(),
                model.len(),
                "a rejection stored something"
            );
            assert_eq!(
                format!("{:?}", agent.slab),
                before,
                "{context}: a rejection touched the records"
            );

            // Alternate the owning and the borrowing entry point.
            if i % 2 == 0 {
                agent.observe(good.clone()).unwrap();
            } else {
                agent
                    .observe_parts(
                        &good.states,
                        &good.actions,
                        &good.rewards,
                        &good.next_states,
                    )
                    .unwrap();
            }
            if i > 0
                && slot != newest
                && bits(&good.states.concat()) != bits(&model[newest].next_states.concat())
            {
                breaks += 1;
            }
            if slot == model.len() {
                model.push(good);
            } else {
                model[slot] = good;
            }
            newest = slot;
            assert_eq!(agent.buffer_len(), model.len());
            let mut unlinked = 0;
            for (slot, t) in model.iter().enumerate() {
                let at = format!("{context}: push {i}, slot {slot}");
                assert_eq!(
                    bits(agent.slab.states(slot)),
                    bits(&t.states.concat()),
                    "{at}"
                );
                assert_eq!(
                    bits(agent.slab.next_states(slot)),
                    bits(&t.next_states.concat()),
                    "{at}"
                );
                assert_eq!(agent.slab.rewards(slot), t.rewards, "{at}");
                let actions: Vec<usize> = agent
                    .slab
                    .actions(slot)
                    .iter()
                    .map(|&a| usize::from(a))
                    .collect();
                assert_eq!(actions, t.actions.concat(), "{at}");
                let successor = &model[(slot + 1) % model.len()];
                if slot != newest
                    && bits(&t.next_states.concat()) != bits(&successor.states.concat())
                {
                    unlinked += 1;
                }
            }
            assert_eq!(agent.replay_unlinked(), unlinked, "{context}: push {i}");
        }
        assert_eq!(agent.buffer_len(), capacity);
        // What each sequence is there to exercise did happen. (A ring of
        // one replaces the only record there is: nothing to break from.)
        let want = if capacity == 1 {
            0
        } else {
            (1..pushes).filter(|&i| breaks_at(i)).count()
        };
        assert_eq!(breaks, want, "{context}");
        assert!(
            agent.replay_bytes()
                >= capacity * crate::memory::replay_record_bytes(agents, state_dim, branches.len())
        );
    }

    #[test]
    fn non_finite_loss_skips_weight_update() {
        let mut agent = MaBdq::new(tiny_config(1)).unwrap();
        // Rewards large enough that the squared TD error overflows f32:
        // the loss goes infinite and the NaN guard must refuse the step.
        for _ in 0..agent.config().batch_size {
            agent
                .observe(MultiTransition {
                    states: vec![vec![0.1, 0.2]],
                    actions: vec![vec![0, 0]],
                    rewards: vec![1.0e30],
                    next_states: vec![vec![0.1, 0.2]],
                })
                .unwrap();
        }
        let probe = vec![vec![0.1, 0.2]];
        let before = agent.q_values(&probe).unwrap();
        let stats = agent.train_step().unwrap().expect("batch available");
        assert!(stats.skipped, "blown-up loss must be skipped");
        assert!(!stats.loss.is_finite());
        assert_eq!(agent.steps(), 0);
        assert_eq!(agent.skipped_steps(), 1);
        let after = agent.q_values(&probe).unwrap();
        assert_eq!(before, after, "weights untouched by the skipped step");
        assert!(after.iter().flatten().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn non_finite_weight_behind_zero_activations_skips_weight_update() {
        let config = tiny_config(1);
        let mut agent = MaBdq::new(config.clone()).unwrap();
        for _ in 0..config.batch_size {
            agent
                .observe(MultiTransition {
                    states: vec![vec![0.1, 0.2]],
                    actions: vec![vec![0, 0]],
                    rewards: vec![1.0],
                    next_states: vec![vec![0.1, 0.2]],
                })
                .unwrap();
        }
        // Kill hidden unit 0 of the value head (zero fan-in, negative bias:
        // its ReLU output is 0 for every input), then poison the one output
        // weight behind it. The GEMM skips nothing — 0 · ∞ is NaN — so the
        // poison reaches the loss, and the NaN guard, not a masked
        // multiply, is what keeps it out of the weights. (The output layer
        // is where this bites: a ReLU maps a NaN pre-activation to 0.)
        let (inputs, hidden) = (
            config.trunk_hidden[1] + config.state_dim,
            config.head_hidden,
        );
        let head = &mut Arc::make_mut(&mut agent.online).value_heads[0];
        let mut params = head.parameters().to_vec();
        for row in params[..inputs * hidden].chunks_mut(hidden) {
            row[0] = 0.0;
        }
        params[inputs * hidden] = -1.0;
        params[inputs * hidden + hidden] = f32::INFINITY;
        head.import_parameters(&params).unwrap();

        let before = agent.save_checkpoint().params;
        let stats = agent.train_step().unwrap().expect("batch available");
        assert!(stats.skipped, "a poisoned forward pass must be skipped");
        assert!(stats.loss.is_nan());
        assert_eq!(agent.steps(), 0);
        assert_eq!(agent.skipped_steps(), 1);
        let after = agent.save_checkpoint().params;
        assert_eq!(before, after, "weights untouched by the skipped step");
    }

    #[test]
    fn train_step_none_until_batch_full() {
        let mut agent = MaBdq::new(tiny_config(1)).unwrap();
        assert_eq!(agent.train_step().unwrap(), None);
        for _ in 0..agent.config().batch_size {
            agent
                .observe(MultiTransition {
                    states: vec![vec![0.1, 0.2]],
                    actions: vec![vec![0, 0]],
                    rewards: vec![0.5],
                    next_states: vec![vec![0.1, 0.2]],
                })
                .unwrap();
        }
        let stats = agent.train_step().unwrap().expect("batch available");
        assert!(stats.loss >= 0.0);
        assert_eq!(agent.steps(), 1);
    }

    /// A contextual bandit each agent can solve: with state s, branch 0
    /// pays for action (s>0) and branch 1 pays for the opposite parity.
    fn bandit_reward(state: f32, a0: usize, a1: usize) -> f32 {
        let want0 = usize::from(state > 0.0);
        let want1 = usize::from(state <= 0.0);
        let mut r = 0.0;
        if a0 == want0 {
            r += 1.0;
        }
        if a1 == want1 {
            r += 1.0;
        }
        r
    }

    #[test]
    fn learns_contextual_bandit_single_agent() {
        let mut agent = MaBdq::new(tiny_config(1)).unwrap();
        let mut rng = Xoshiro256::seed_from_u64(9);
        for step in 0..600 {
            let s = if rng.next_bool(0.5) { 1.0 } else { -1.0 };
            let state = vec![vec![s, 0.5]];
            let eps = (1.0 - step as f64 / 300.0).max(0.05);
            let acts = agent.select_actions(&state, eps).unwrap();
            let r = bandit_reward(s, acts[0][0], acts[0][1]);
            agent
                .observe(MultiTransition {
                    states: state.clone(),
                    actions: acts,
                    rewards: vec![r],
                    next_states: state,
                })
                .unwrap();
            agent.train_step().unwrap();
        }
        // Greedy policy should now be optimal for both contexts.
        for s in [1.0f32, -1.0] {
            let acts = agent.select_actions(&[vec![s, 0.5]], 0.0).unwrap();
            let r = bandit_reward(s, acts[0][0], acts[0][1]);
            assert_eq!(r, 2.0, "state {s}: suboptimal actions {acts:?}");
        }
    }

    #[test]
    fn learns_with_two_agents_distinct_contexts() {
        let mut agent = MaBdq::new(tiny_config(2)).unwrap();
        let mut rng = Xoshiro256::seed_from_u64(10);
        for step in 0..900 {
            let s0 = if rng.next_bool(0.5) { 1.0 } else { -1.0 };
            let s1 = if rng.next_bool(0.5) { 1.0 } else { -1.0 };
            let states = vec![vec![s0, 0.0], vec![s1, 0.0]];
            let eps = (1.0 - step as f64 / 450.0).max(0.05);
            let acts = agent.select_actions(&states, eps).unwrap();
            let rewards = vec![
                bandit_reward(s0, acts[0][0], acts[0][1]),
                bandit_reward(s1, acts[1][0], acts[1][1]),
            ];
            agent
                .observe(MultiTransition {
                    states: states.clone(),
                    actions: acts,
                    rewards,
                    next_states: states,
                })
                .unwrap();
            agent.train_step().unwrap();
        }
        let mut total = 0.0;
        for (s0, s1) in [(1.0f32, -1.0f32), (-1.0, 1.0), (1.0, 1.0), (-1.0, -1.0)] {
            let acts = agent
                .select_actions(&[vec![s0, 0.0], vec![s1, 0.0]], 0.0)
                .unwrap();
            total += bandit_reward(s0, acts[0][0], acts[0][1])
                + bandit_reward(s1, acts[1][0], acts[1][1]);
        }
        assert!(total >= 14.0, "joint policy too weak: {total}/16");
    }

    #[test]
    fn target_network_syncs_on_schedule() {
        let mut agent = MaBdq::new(tiny_config(1)).unwrap();
        for _ in 0..64 {
            agent
                .observe(MultiTransition {
                    states: vec![vec![1.0, 0.0]],
                    actions: vec![vec![0, 0]],
                    rewards: vec![1.0],
                    next_states: vec![vec![1.0, 0.0]],
                })
                .unwrap();
        }
        for _ in 0..20 {
            agent.train_step().unwrap();
        }
        // After exactly target_update_every steps, weights match.
        assert_eq!(
            agent.online.trunk.parameters(),
            agent.target.trunk.parameters()
        );
    }

    #[test]
    fn transfer_reset_keeps_trunk() {
        let mut agent = MaBdq::new(tiny_config(1)).unwrap();
        let trunk_before = agent.trunk_weights().to_vec();
        let head_before = agent.online.adv_heads[0].parameters().to_vec();
        agent.transfer_reset();
        assert_eq!(agent.trunk_weights(), trunk_before);
        assert_ne!(agent.online.adv_heads[0].parameters(), head_before);
    }

    #[test]
    fn memory_metrics_scale_with_architecture() {
        let small = MaBdq::new(tiny_config(1)).unwrap();
        let paper = MaBdq::new(MaBdqConfig {
            state_dim: 11,
            ..MaBdqConfig::paper()
        })
        .unwrap();
        assert!(paper.param_count() > small.param_count());
        assert!(
            paper.memory_bytes() < 5_000_000,
            "paper net must fit in 5 MB"
        );
    }

    #[test]
    fn checkpoint_roundtrip_preserves_policy() {
        let mut agent = MaBdq::new(tiny_config(2)).unwrap();
        // Perturb weights via a couple of training steps.
        for _ in 0..20 {
            agent
                .observe(MultiTransition {
                    states: vec![vec![0.3, -0.4]; 2],
                    actions: vec![vec![1, 0]; 2],
                    rewards: vec![1.0, -1.0],
                    next_states: vec![vec![0.3, -0.4]; 2],
                })
                .unwrap();
        }
        agent.train_step().unwrap();
        let checkpoint = agent.save_checkpoint();
        assert_eq!(checkpoint.params.len(), agent.param_count());
        assert_eq!(checkpoint.steps, 1);
        assert!(!checkpoint.adam.slots.is_empty());
        let states = vec![vec![0.3, -0.4], vec![-0.9, 0.1]];
        let q_before = agent.q_values(&states).unwrap();

        let mut restored = MaBdq::new(MaBdqConfig {
            seed: 99,
            ..tiny_config(2)
        })
        .unwrap();
        assert_ne!(restored.q_values(&states).unwrap(), q_before);
        restored.load_checkpoint(&checkpoint).unwrap();
        assert_eq!(restored.q_values(&states).unwrap(), q_before);
        assert_eq!(restored.steps(), agent.steps());
        assert_eq!(restored.skipped_steps(), agent.skipped_steps());
        // The restored optimizer carries the same moments, so identical
        // training inputs take identical Adam steps from here on.
        assert_eq!(restored.save_checkpoint().adam, checkpoint.adam);
    }

    #[test]
    fn load_checkpoint_rejects_truncated_params() {
        let agent = MaBdq::new(tiny_config(2)).unwrap();
        let mut ckpt = agent.save_checkpoint();
        ckpt.params.pop();
        let mut restored = MaBdq::new(tiny_config(2)).unwrap();
        assert!(matches!(
            restored.load_checkpoint(&ckpt),
            Err(RlError::CheckpointMismatch { .. })
        ));
    }

    #[test]
    fn load_checkpoint_rejects_permuted_branches_with_same_param_count() {
        // [3, 2] and [2, 3] branch layouts have identical total parameter
        // counts (the advantage heads are symmetric under permutation), so
        // a flat length check cannot tell them apart — the shape
        // fingerprint must.
        let donor = MaBdq::new(tiny_config(1)).unwrap();
        let mut receiver = MaBdq::new(MaBdqConfig {
            branches: vec![2, 3],
            ..tiny_config(1)
        })
        .unwrap();
        assert_eq!(donor.param_count(), receiver.param_count());
        assert!(matches!(
            receiver.load_checkpoint(&donor.save_checkpoint()),
            Err(RlError::CheckpointMismatch { .. })
        ));
    }

    #[test]
    fn load_checkpoint_rejects_inconsistent_moments() {
        let donor = MaBdq::new(tiny_config(1)).unwrap();
        let mut ckpt = donor.save_checkpoint();
        ckpt.adam.slots.push(MomentSlot {
            id: 0,
            steps: 1,
            m: vec![0.0; 3],
            v: vec![0.0; 3],
        });
        let mut receiver = MaBdq::new(tiny_config(1)).unwrap();
        assert!(matches!(
            receiver.load_checkpoint(&ckpt),
            Err(RlError::CheckpointMismatch { .. })
        ));
    }

    #[test]
    fn load_checkpoint_rejects_moments_that_do_not_fit_their_ids() {
        // The sum of the slot lengths is right in every case but the last,
        // which is all the check used to look at; the next train step then
        // panicked in `Adam::update`.
        let fill = |agent: &mut MaBdq| {
            for _ in 0..16 {
                agent.observe(normal_transition(2)).unwrap();
            }
        };
        let mut donor = MaBdq::new(tiny_config(2)).unwrap();
        fill(&mut donor);
        donor.train_step().unwrap().expect("batch full");
        let good = donor.save_checkpoint();
        let ids: Vec<usize> = good.adam.slots.iter().map(|s| s.id).collect();
        assert_eq!(ids, (0..ids.len()).collect::<Vec<_>>());
        assert_ne!(good.adam.slots[0].m.len(), good.adam.slots[1].m.len());

        let swapped = |c: &mut MaBdqCheckpoint| {
            c.adam.slots[0].id = 1;
            c.adam.slots[1].id = 0;
        };
        let duplicated = |c: &mut MaBdqCheckpoint| c.adam.slots[1].id = 0;
        let out_of_range = |c: &mut MaBdqCheckpoint| {
            c.adam.slots.last_mut().unwrap().id = usize::MAX / 2;
        };
        let resplit = |c: &mut MaBdqCheckpoint| {
            let moved = c.adam.slots[0].m.pop().unwrap();
            c.adam.slots[1].m.push(moved);
            let moved = c.adam.slots[0].v.pop().unwrap();
            c.adam.slots[1].v.push(moved);
        };
        let extra = |c: &mut MaBdqCheckpoint| {
            let mut slot = c.adam.slots[0].clone();
            slot.id = c.adam.slots.len();
            slot.m.clear();
            slot.v.clear();
            c.adam.slots.push(slot);
        };
        let missing = |c: &mut MaBdqCheckpoint| {
            // Bias of the last layer: the parameters end, the moments do not.
            c.adam.slots.pop();
        };
        type Corrupt<'a> = &'a dyn Fn(&mut MaBdqCheckpoint);
        let cases: [(&str, Corrupt); 6] = [
            ("swapped ids", &swapped),
            ("duplicated id", &duplicated),
            ("out-of-range id", &out_of_range),
            ("right total, wrong split", &resplit),
            ("a slot too many", &extra),
            ("a slot too few", &missing),
        ];
        for (what, corrupt) in cases {
            let mut ckpt = good.clone();
            corrupt(&mut ckpt);
            let mut receiver = MaBdq::new(tiny_config(2)).unwrap();
            fill(&mut receiver);
            receiver.train_step().unwrap().expect("batch full");
            let before = receiver.save_checkpoint();
            assert!(
                matches!(
                    receiver.load_checkpoint(&ckpt),
                    Err(RlError::CheckpointMismatch { .. })
                ),
                "{what}"
            );
            // Refused whole: nothing was imported, and the learner trains on.
            assert_eq!(receiver.save_checkpoint(), before, "{what}");
            receiver.train_step().unwrap().expect("batch full");
        }
        let mut receiver = MaBdq::new(tiny_config(2)).unwrap();
        fill(&mut receiver);
        receiver.load_checkpoint(&good).unwrap();
        receiver.train_step().unwrap().expect("batch full");
    }

    #[test]
    fn load_checkpoint_rejects_moments_with_different_step_counts() {
        // The optimiser keeps one step count, so every slot a checkpoint
        // carries must agree on it; a section whose slots differ used to be
        // accepted, each slot keeping its own.
        let mut donor = MaBdq::new(tiny_config(2)).unwrap();
        for _ in 0..16 {
            donor.observe(normal_transition(2)).unwrap();
        }
        for _ in 0..3 {
            donor.train_step().unwrap().expect("batch full");
        }
        let good = donor.save_checkpoint();
        assert!(good.adam.slots.iter().all(|s| s.steps == 3));
        let mut skewed = good.clone();
        skewed.adam.slots[1].steps = 2;
        let mut receiver = MaBdq::new(tiny_config(2)).unwrap();
        let before = receiver.save_checkpoint();
        let err = receiver.load_checkpoint(&skewed).unwrap_err();
        assert!(
            err.to_string().contains("slot 1 has id 1, 2 steps"),
            "{err}"
        );
        assert_eq!(receiver.save_checkpoint(), before);
        receiver.load_checkpoint(&good).unwrap();
        assert_eq!(receiver.save_checkpoint().adam, good.adam);
    }

    fn quarantine_test_config(agents: usize) -> MaBdqConfig {
        MaBdqConfig {
            quarantine: QuarantineConfig {
                trip_multiple: 4.0,
                warmup_steps: 10,
                probation_steps: 30,
                snapshot_every: 5,
                ..QuarantineConfig::default()
            }
            .armed(),
            ..tiny_config(agents)
        }
    }

    fn normal_transition(agents: usize) -> MultiTransition {
        MultiTransition {
            states: vec![vec![0.2, -0.3]; agents],
            actions: vec![vec![0, 1]; agents],
            rewards: vec![0.5; agents],
            next_states: vec![vec![0.2, -0.3]; agents],
        }
    }

    #[test]
    fn quarantine_inactive_is_bit_identical_to_disabled() {
        // An armed quarantine that never trips must not change a single
        // weight bit relative to a run without it.
        let mut plain = MaBdq::new(tiny_config(2)).unwrap();
        let mut guarded = MaBdq::new(MaBdqConfig {
            quarantine: QuarantineConfig {
                trip_multiple: 1e12,
                warmup_steps: 1_000_000,
                ..QuarantineConfig::default()
            }
            .armed(),
            ..tiny_config(2)
        })
        .unwrap();
        let mut rng = Xoshiro256::seed_from_u64(17);
        for _ in 0..80 {
            let s = if rng.next_bool(0.5) { 1.0 } else { -1.0 };
            let t = MultiTransition {
                states: vec![vec![s, 0.1]; 2],
                actions: vec![vec![1, 0]; 2],
                rewards: vec![s, -s],
                next_states: vec![vec![s, 0.1]; 2],
            };
            plain.observe(t.clone()).unwrap();
            guarded.observe(t).unwrap();
            plain.train_step().unwrap();
            guarded.train_step().unwrap();
        }
        assert_eq!(guarded.quarantine_stats().trips, 0);
        let a = plain.save_checkpoint();
        let b = guarded.save_checkpoint();
        for (x, y) in a.params.iter().zip(&b.params) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn quarantine_contains_diverging_agent_and_readmits() {
        let mut agent = MaBdq::new(quarantine_test_config(2)).unwrap();
        // Warm up baselines with well-behaved data.
        for _ in 0..30 {
            agent.observe(normal_transition(2)).unwrap();
            agent.train_step().unwrap();
        }
        assert_eq!(agent.quarantine_stats().trips, 0);
        let steps_before = agent.steps();
        // Poison agent 0 only: a reward spike whose squared TD overflows
        // f32, so the global NaN guard starts skipping every step.
        for _ in 0..4 {
            agent
                .observe(MultiTransition {
                    rewards: vec![1.0e30, 0.5],
                    ..normal_transition(2)
                })
                .unwrap();
            agent.train_step().unwrap();
        }
        let stats = agent.quarantine_stats();
        assert!(stats.trips >= 1, "poisoned agent must trip: {stats:?}");
        assert_eq!(stats.frozen_agents, 1, "only agent 0 frozen: {stats:?}");
        // With agent 0 quarantined the loss is finite again, so the other
        // agent keeps accumulating applied (non-skipped) train steps even
        // though the poisoned transitions are still in the buffer.
        let skipped_before = agent.skipped_steps();
        for _ in 0..10 {
            agent.observe(normal_transition(2)).unwrap();
            agent.train_step().unwrap();
        }
        assert!(
            agent.steps() > steps_before,
            "fleet still training after containment"
        );
        assert_eq!(
            agent.skipped_steps(),
            skipped_before,
            "no further skipped steps once the divergent agent is frozen"
        );
        // Probation is 30 train calls: keep training until re-admission.
        for _ in 0..40 {
            agent.observe(normal_transition(2)).unwrap();
            agent.train_step().unwrap();
        }
        let stats = agent.quarantine_stats();
        assert!(
            stats.readmissions >= 1,
            "agent must be re-admitted after probation: {stats:?}"
        );
        // Q-values stay finite throughout.
        let q = agent.q_values(&vec![vec![0.2, -0.3]; 2]).unwrap();
        assert!(q.iter().flatten().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn quarantined_agent_head_pass_draws_nothing() {
        // A frozen agent's head pass must leave the networks exactly as
        // they were — dropout RNG streams of the shared advantage heads
        // included, or the other agents' masks would shift — and add no
        // loss, gradient or priority. The Debug rendering covers every
        // field of every layer.
        let mut agent = MaBdq::new(MaBdqConfig {
            dropout: 0.25,
            ..quarantine_test_config(3)
        })
        .unwrap();
        for _ in 0..16 {
            agent.observe(normal_transition(3)).unwrap();
        }
        agent.guards[1].frozen_until = u64::MAX;
        agent.train_step_budgeted().unwrap();
        let nets = format!("{:?}", agent.online);
        let sums = agent.step.sums.clone();
        agent.train_step_budgeted().unwrap();
        assert_eq!(agent.step.next_agent, 2);
        assert_eq!(format!("{:?}", agent.online), nets);
        let after = &agent.step.sums;
        assert_eq!(after.loss.to_bits(), sums.loss.to_bits());
        assert_eq!(after.abs_td, sums.abs_td);
        assert_eq!(after.trunk_grad, sums.trunk_grad);
        assert_eq!(after.adv_first_grad, sums.adv_first_grad);
        // The next live agent does draw, and adds to every branch's sum.
        let pass = (Shape::of(&agent.config), 2, false, true);
        agent.step.head_pass(Arc::make_mut(&mut agent.online), pass);
        assert_ne!(format!("{:?}", agent.online), nets);
        let after = &agent.step.sums.adv_first_grad;
        for (after, before) in after.iter().zip(&sums.adv_first_grad) {
            assert_ne!(after, before);
        }
    }

    #[test]
    fn one_agent_takes_the_unsplit_path() {
        // With one agent nothing is shared, so no prefix and no state stack
        // are ever built; with two, both the gradient step and the decide
        // path build them: one prefix per branch, and a stack of the agents
        // one evaluation covers — one agent's B rows in the step's targets,
        // every agent's one row in a decide. The targets keep one agent's
        // Q-values and the online argmax of every (agent, branch, row).
        let (batch, branches) = (16, 2);
        for (agents, split) in [(1, false), (2, true)] {
            let mut agent = MaBdq::new(tiny_config(agents)).unwrap();
            for _ in 0..16 {
                agent.observe(normal_transition(agents)).unwrap();
            }
            agent.train_step().unwrap().expect("batch full");
            agent.q_values(&vec![vec![0.2, -0.3]; agents]).unwrap();
            let (step, scratch) = (&agent.step, &agent.scratch);
            assert_eq!(!step.sample.stage.prefixes.is_empty(), split);
            for (work, shared, rows) in [
                (&step.lane.eval, &step.sample.stage, batch),
                (&scratch.eval, &scratch.shared, agents),
            ] {
                assert_eq!(work.stacked.rows(), if split { rows } else { 0 });
                assert_eq!(shared.prefixes.len(), if split { branches } else { 0 });
                let rows = shared.trunk_out.rows();
                assert!(shared.prefixes.iter().all(|p| p.rows() == rows));
            }
            assert_eq!(step.lane.q_agent.len(), 1);
            assert_eq!(step.lane.a_star.len(), agents * branches * batch);
        }
    }

    #[test]
    fn quarantine_config_validation() {
        for bad in [
            QuarantineConfig {
                trip_multiple: 0.5,
                ..QuarantineConfig::default()
            }
            .armed(),
            QuarantineConfig {
                probation_steps: 0,
                ..QuarantineConfig::default()
            }
            .armed(),
            QuarantineConfig {
                snapshot_every: 0,
                ..QuarantineConfig::default()
            }
            .armed(),
        ] {
            let config = MaBdqConfig {
                quarantine: bad.clone(),
                ..tiny_config(1)
            };
            assert!(MaBdq::new(config).is_err(), "accepted {bad:?}");
            // The same thresholds are fine while disabled.
            let dormant = MaBdqConfig {
                quarantine: QuarantineConfig {
                    enabled: false,
                    ..bad
                },
                ..tiny_config(1)
            };
            assert!(MaBdq::new(dormant).is_ok());
        }
    }

    #[test]
    fn dueling_combine_centres_advantages() {
        let adv = Tensor::from_rows(&[vec![1.0, 3.0]]).unwrap();
        let mut q = Tensor::default();
        dueling_combine_into(&[2.0], &adv, &mut q);
        // mean adv = 2 => q = [2 + (1-2), 2 + (3-2)] = [1, 3]
        assert_eq!(q.as_slice(), &[1.0, 3.0]);
    }

    #[test]
    fn fused_targets_match_per_agent_reference_at_training_shape() {
        // The fused forward over all agents at the training shape B = 64; at
        // K = 24 each advantage head's first layer is a 64-row prefix over
        // the 64 trunk columns, then 1536 stacked rows continuing it over
        // their own 11 — many full tiles plus remainders, where the B = 1
        // decide tests are one short row band. Every Q-value must equal the
        // per-agent reference (one-shot 75-deep products) bit-for-bit.
        let config = MaBdqConfig {
            agents: 24,
            ..MaBdqConfig::default()
        };
        let (batch, state_dim) = (64, config.state_dim);
        let mut rng = Xoshiro256::seed_from_u64(31);
        let net = Net::new(&config, &mut rng);
        let mut x = Tensor::zeros(batch, config.agents * state_dim);
        for v in x.as_mut_slice() {
            *v = rng.range_f64(-1.0, 1.0) as f32;
        }
        // One working memory for both: nothing of an evaluation outlives it
        // but its Q-values.
        let (mut shared, mut work) = (Trunked::default(), EvalWork::default());
        let (mut fused, mut reference) = (QValues::new(), QValues::new());
        net.q_values_fused_into(&x, state_dim, (&mut shared, &mut work), &mut fused);
        let work = (&mut shared, &mut work);
        net.q_values_per_agent_into(&x, state_dim, work, &mut reference);
        assert_eq!(fused.len(), config.agents);
        for (k, (f, r)) in fused.iter().zip(&reference).enumerate() {
            assert_eq!(f.len(), config.branches.len());
            for (d, (fd, rd)) in f.iter().zip(r).enumerate() {
                assert_eq!((fd.rows(), fd.cols()), (batch, config.branches[d]));
                for (a, b) in fd.as_slice().iter().zip(rd.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "agent {k} branch {d}");
                }
            }
        }
    }

    /// A transition of random states in `[-1, 1)`, actions and rewards.
    fn random_transition(rng: &mut Xoshiro256, config: &MaBdqConfig) -> MultiTransition {
        let mut states = || -> Vec<Vec<f32>> {
            (0..config.agents)
                .map(|_| {
                    (0..config.state_dim)
                        .map(|_| rng.range_f32(-1.0, 1.0))
                        .collect()
                })
                .collect()
        };
        let (states, next_states) = (states(), states());
        MultiTransition {
            states,
            next_states,
            actions: (0..config.agents)
                .map(|_| {
                    config
                        .branches
                        .iter()
                        .map(|&n| rng.range_usize(0, n))
                        .collect()
                })
                .collect(),
            rewards: (0..config.agents)
                .map(|_| rng.range_f32(-1.0, 1.0))
                .collect(),
        }
    }

    /// Fills the buffer and takes `steps` gradient steps.
    fn train(agent: &mut MaBdq, rng: &mut Xoshiro256, steps: usize) {
        let config = agent.config().clone();
        while agent.buffer_len() < config.batch_size.max(steps) {
            agent.observe(random_transition(rng, &config)).unwrap();
        }
        for _ in 0..steps {
            agent.train_step().unwrap().expect("batch full");
        }
    }

    /// `net`'s Q-values of `x` for every agent, per agent and branch, with
    /// the agents evaluated in groups of one, of three and all at once:
    /// each bit for bit the per-agent reference's. One `EvalWork` serves
    /// the reference and every group.
    fn assert_any_grouping_matches_the_reference(
        net: &Net,
        x: &Tensor,
        state_dim: usize,
        context: &str,
    ) {
        let agents = net.value_heads.len();
        let (mut shared, mut work) = (Trunked::default(), EvalWork::default());
        let (mut reference, mut q) = (QValues::new(), QValues::new());
        net.q_values_per_agent_into(x, state_dim, (&mut shared, &mut work), &mut reference);
        for group in [1, 3, agents] {
            net.eval_shared(x, &mut work.tape, &mut shared);
            for start in (0..agents).step_by(group) {
                let range = start..(start + group).min(agents);
                let eval = (&shared, &mut work);
                net.eval_heads(x, range.clone(), state_dim, eval, &mut q);
                assert_eq!(q.len(), range.len());
                for (got, k) in q.iter().zip(range) {
                    assert_eq!(got.len(), reference[k].len());
                    for (d, (g, want)) in got.iter().zip(&reference[k]).enumerate() {
                        assert_eq!((g.rows(), g.cols()), (want.rows(), want.cols()));
                        assert_eq!(
                            bits(g.as_slice()),
                            bits(want.as_slice()),
                            "{context}: groups of {group}, agent {k}, branch {d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn eval_heads_over_any_grouping_of_the_agents_matches_the_per_agent_reference() {
        // The train step evaluates its targets one agent at a time, decides
        // evaluate every agent at once: either way a row's Q-values are the
        // reference's. Fresh, trained, and trained on with one agent frozen
        // by quarantine (no head pass for it, so the shared heads learn from
        // the others alone); dropout on, so the eval path must also leave
        // the masks alone.
        let mut rng = Xoshiro256::seed_from_u64(0xe7a1);
        for agents in [1, 3, 24] {
            let config = MaBdqConfig {
                dropout: 0.25,
                gamma: 0.9,
                ..quarantine_test_config(agents)
            };
            let mut agent = MaBdq::new(config.clone()).unwrap();
            let check = |agent: &mut MaBdq, rng: &mut Xoshiro256, what: &str| {
                let batch = 13;
                let mut x = Tensor::zeros(batch, agents * config.state_dim);
                for v in x.as_mut_slice() {
                    *v = rng.range_f32(-2.0, 2.0);
                }
                for (name, net) in [("online", &*agent.online), ("target", &*agent.target)] {
                    let context = format!("K = {agents}, {what}, {name}");
                    assert_any_grouping_matches_the_reference(net, &x, config.state_dim, &context);
                }
            };
            check(&mut agent, &mut rng, "fresh");
            train(&mut agent, &mut rng, 30);
            check(&mut agent, &mut rng, "trained");
            agent.guards[agents / 2].frozen_until = u64::MAX;
            train(&mut agent, &mut rng, 25);
            check(&mut agent, &mut rng, "one agent frozen");
        }
    }

    /// Makes action 1 of an advantage head an exact copy of action 0 and
    /// puts both far above the rest: every row's advantages, hence its
    /// Q-values, then tie exactly at the top.
    fn tie_first_two_actions(head: &mut Mlp) {
        let lens: Vec<usize> = head.parameter_lens().collect();
        let [w1, b1, w2, actions] = lens[..] else {
            panic!("a head is two dense layers: {lens:?}");
        };
        let mut params = head.parameters().to_vec();
        let (last_w, last_b) = (w1 + b1, w1 + b1 + w2);
        for row in params[last_w..last_b].chunks_exact_mut(actions) {
            row[1] = row[0];
        }
        params[last_b] = 100.0;
        params[last_b + 1] = 100.0;
        head.import_parameters(&params).unwrap();
    }

    /// The targets from whole tables: the online network's advantages and
    /// the target network's Q-values for all `K` agents at once (`K·B`
    /// stacked rows), kept whole, then the loop. Also returns the target
    /// network's table.
    fn targets_from_full_q_tables(agent: &mut MaBdq) -> (Vec<f32>, QValues) {
        let MaBdq {
            config,
            online,
            target,
            slab,
            step,
            ..
        } = agent;
        let (agents, batch, branches) = (config.agents, config.batch_size, config.branches.len());
        let (mut shared, mut work) = (Trunked::default(), EvalWork::default());
        let (mut a_online, mut q_target) = (QValues::new(), QValues::new());
        let x_next = &step.sample.x_next;
        online.eval_shared(x_next, &mut work.tape, &mut shared);
        let eval = (&shared, &mut work);
        online.eval_advantages(x_next, 0..agents, config.state_dim, eval, &mut a_online);
        let eval = (&mut shared, &mut work);
        target.q_values_fused_into(x_next, config.state_dim, eval, &mut q_target);
        let mut targets = vec![0.0; batch * agents];
        for k in 0..agents {
            for b in 0..batch {
                let mut acc = 0.0;
                for d in 0..branches {
                    let a_star = argmax(a_online[k][d].row(b));
                    acc += q_target[k][d][(b, a_star)];
                }
                let reward = slab.rewards(step.sample.batch.indices[b])[k];
                targets[b * agents + k] = reward + config.gamma * acc / branches as f32;
            }
        }
        (targets, q_target)
    }

    #[test]
    fn streamed_targets_equal_targets_from_full_q_tables() {
        // `begin_step` streams: per agent, the online argmax goes into
        // `a_star` and the target values are summed as they come out. Every
        // target must carry the bits of the old whole-table loop, over steps
        // that train both networks apart. On even rounds the online head of
        // branch 0 is rigged so actions 0 and 1 tie exactly at the top of
        // every row, where the target network's two values differ: the first
        // index must win, as `argmax` always let it.
        let mut rng = Xoshiro256::seed_from_u64(0x7a26);
        for agents in [1, 3, 24] {
            let config = MaBdqConfig {
                gamma: 0.9,
                dropout: 0.25,
                ..tiny_config(agents)
            };
            let (batch, branches) = (config.batch_size, config.branches.len());
            let mut agent = MaBdq::new(config.clone()).unwrap();
            train(&mut agent, &mut rng, 0);
            for round in 0..10 {
                let tied = round % 2 == 0;
                if tied {
                    tie_first_two_actions(&mut Arc::make_mut(&mut agent.online).adv_heads[0]);
                }
                assert!(agent.begin_step().unwrap());
                let (want, q_target) = targets_from_full_q_tables(&mut agent);
                let context = format!("K = {agents}, round {round}");
                assert_eq!(bits(&agent.step.sample.targets), bits(&want), "{context}");
                if tied {
                    // A helper took the odd agents' greedy actions.
                    let theirs = match &agent.helping {
                        Helping::With(helper) => helper.job().lane.a_star.clone(),
                        _ => agent.step.lane.a_star.clone(),
                    };
                    let mine = agent.step.lane.a_star.chunks_exact(branches * batch);
                    let chosen = mine.zip(theirs.chunks_exact(branches * batch));
                    let chosen = chosen.enumerate();
                    for ((k, (mine, theirs)), q) in chosen.zip(&q_target) {
                        let a_star = if k % 2 == 0 { mine } else { theirs };
                        let first = &a_star[..batch];
                        assert!(
                            first.iter().all(|&a| a == 0),
                            "{context}, agent {k}: {first:?}"
                        );
                        let t = &q[0];
                        assert!(
                            (0..batch).any(|b| t[(b, 0)] != t[(b, 1)]),
                            "{context}: the tie would not show"
                        );
                    }
                }
                agent.head_passes();
                assert!(!agent.finish_step().skipped, "{context}");
                agent.observe(random_transition(&mut rng, &config)).unwrap();
            }
        }
    }

    #[test]
    fn advantage_argmax_is_the_q_argmax_wherever_the_maximum_is_unique() {
        // `Q = V + A − mean(A)` adds one number per row and rounding is
        // monotone, so a row's Q-values keep its advantages' order except
        // where rounding merges two of them into a tie. Wherever the largest
        // Q-value is attained once, the advantages' first maximum must be its
        // index; where `tie_first_two_actions` makes the top advantages equal,
        // the first index wins.
        let mut rng = Xoshiro256::seed_from_u64(0xa58);
        for agents in [1, 3, 24] {
            let config = MaBdqConfig {
                dropout: 0.25,
                ..tiny_config(agents)
            };
            let mut agent = MaBdq::new(config.clone()).unwrap();
            train(&mut agent, &mut rng, 40);
            let batch = 29;
            let mut x = Tensor::zeros(batch, agents * config.state_dim);
            for v in x.as_mut_slice() {
                *v = rng.range_f32(-2.0, 2.0);
            }
            for tied in [false, true] {
                let net = Arc::make_mut(&mut agent.online);
                if tied {
                    tie_first_two_actions(&mut net.adv_heads[0]);
                }
                let (mut shared, mut work) = (Trunked::default(), EvalWork::default());
                let (mut adv, mut q) = (QValues::new(), QValues::new());
                let eval = (&mut shared, &mut work);
                net.q_values_fused_into(&x, config.state_dim, eval, &mut q);
                net.eval_shared(&x, &mut work.tape, &mut shared);
                let eval = (&shared, &mut work);
                net.eval_advantages(&x, 0..agents, config.state_dim, eval, &mut adv);
                let mut unique = 0;
                for (k, (a_k, q_k)) in adv.iter().zip(&q).enumerate() {
                    for (d, (a_kd, q_kd)) in a_k.iter().zip(q_k).enumerate() {
                        for b in 0..batch {
                            let (a_row, q_row) = (a_kd.row(b), q_kd.row(b));
                            let context = format!("K = {agents}, tied {tied}, {k}/{d}/{b}");
                            let top = q_row[argmax(q_row)];
                            if tied && d == 0 {
                                assert_eq!(argmax(a_row), 0, "{context}: {a_row:?}");
                            } else if q_row.iter().filter(|&&v| v == top).count() == 1 {
                                unique += 1;
                                assert_eq!(argmax(a_row), argmax(q_row), "{context}");
                            }
                        }
                    }
                }
                // Nearly every untied row has a unique maximum: the check
                // above is not vacuous.
                let untied = agents * batch * if tied { 1 } else { 2 };
                assert!(unique * 10 >= untied * 9, "{unique} of {untied}");
            }
        }
    }

    #[test]
    fn load_checkpoint_refuses_priorities_that_would_stop_learning() {
        // A NaN or infinite priority used to load and make every later step
        // non-finite and skipped, the step counter frozen, nothing reported;
        // a negative one loaded as a negative sampling weight.
        let trained = || {
            let mut agent = MaBdq::new(tiny_config(2)).unwrap();
            for _ in 0..100 {
                agent.observe(normal_transition(2)).unwrap();
            }
            for _ in 0..20 {
                agent.train_step().unwrap().expect("batch full");
            }
            agent
        };
        let good = trained().save_checkpoint();
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut ckpt = good.clone();
            ckpt.priorities[7] = bad;
            let mut receiver = trained();
            let before = receiver.save_checkpoint();
            match receiver.load_checkpoint(&ckpt) {
                Err(RlError::CheckpointMismatch { detail }) => {
                    assert_eq!(detail, format!("replay priority 7 is {bad}"));
                }
                other => panic!("priority {bad}: {other:?}"),
            }
            assert_eq!(receiver.save_checkpoint(), before, "priority {bad}");
            for _ in 0..50 {
                let stats = receiver.train_step().unwrap().expect("batch full");
                assert!(!stats.skipped, "priority {bad}: {stats:?}");
            }
            assert_eq!(receiver.steps(), 70);
        }
        let mut receiver = trained();
        receiver.load_checkpoint(&good).unwrap();
        for _ in 0..50 {
            assert!(!receiver.train_step().unwrap().expect("batch full").skipped);
        }
        assert_eq!(receiver.steps(), 70);
    }

    /// What the threaded-vs-serial proof compares: every step's
    /// diagnostics and decision, and at the end the checkpoint bytes (params,
    /// moments, counters, priorities), both networks with their dropout
    /// streams, the learner's counters and which agents quarantine ever
    /// froze.
    #[derive(Debug, PartialEq)]
    struct SplitRun {
        progress: Vec<String>,
        decisions: Vec<Vec<Vec<usize>>>,
        checkpoint: Vec<u8>,
        nets: String,
        stats: (LearnerStats, QuarantineStats),
        tripped: Vec<bool>,
    }

    /// One epoch of a proof script: observe, then this, then decide.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Train,
        /// One `train_step_budgeted` call: one agent's head pass.
        Chunk,
        /// Train on a transition whose reward for this agent (every agent:
        /// `usize::MAX`) overflows the squared TD error.
        Poison(usize),
        TransferReset,
        Save,
        Restore,
        /// Go on with a clone of the learner.
        Clone,
    }

    fn split_run(config: &MaBdqConfig, script: &[Op], serial: bool) -> SplitRun {
        let mut agent = MaBdq::new(config.clone()).unwrap();
        if serial {
            agent.train_serially();
        }
        let mut rng = Xoshiro256::seed_from_u64(config.seed ^ 0x5b17);
        let (mut progress, mut decisions) = (Vec::new(), Vec::new());
        let (mut saved, mut helped) = (None, false);
        let mut tripped = vec![false; config.agents];
        for &op in script {
            let mut t = random_transition(&mut rng, config);
            if let Op::Poison(k) = op {
                for (j, r) in t.rewards.iter_mut().enumerate() {
                    if k == usize::MAX || j == k {
                        *r = 1.0e30;
                    }
                }
            }
            let states = t.states.clone();
            agent.observe(t).unwrap();
            let stats = |s: TrainStats| {
                let bits = [s.loss, s.mean_abs_td, s.grad_norm].map(f32::to_bits);
                format!("{bits:?} {}", s.skipped)
            };
            match op {
                Op::Train | Op::Poison(_) => {
                    progress.push(format!("{:?}", agent.train_step().unwrap().map(stats)));
                }
                Op::Chunk => match agent.train_step_budgeted().unwrap() {
                    BudgetedProgress::Done(s) => progress.push(stats(s)),
                    other => progress.push(format!("{other:?}")),
                },
                Op::TransferReset => agent.transfer_reset(),
                Op::Save => saved = Some(agent.save_checkpoint()),
                Op::Restore => agent.load_checkpoint(saved.as_ref().unwrap()).unwrap(),
                Op::Clone => {
                    agent = agent.clone();
                    if serial {
                        agent.train_serially();
                    }
                }
            }
            helped |= matches!(agent.helping, Helping::With(_));
            for (tripped, guard) in tripped.iter_mut().zip(&agent.guards) {
                *tripped |= guard.frozen_until > 0;
            }
            let mut actions = Vec::new();
            agent
                .select_actions_into(&states, 0.3, &mut actions)
                .unwrap();
            decisions.push(actions);
        }
        assert_eq!(helped, !serial && two_cpus(), "a helper took part");
        SplitRun {
            progress,
            decisions,
            checkpoint: crate::encode_checkpoint(&agent.save_checkpoint()),
            nets: format!("{:?}", (&agent.online, &*agent.target)),
            stats: (agent.learner_stats(), agent.quarantine_stats()),
            tripped,
        }
    }

    #[test]
    fn threaded_steps_equal_serial_steps() {
        use Op::*;
        let train = |n| vec![Train; n];
        let chunks = vec![Chunk; 48];
        let scripts: [(&str, Vec<Op>); 8] = [
            ("plain", train(30)),
            ("budgeted chunks", [train(2), chunks.clone()].concat()),
            (
                "agent 0 quarantined mid-run",
                [train(15), vec![Poison(0); 4], train(8), chunks.clone()].concat(),
            ),
            (
                "agent 1 quarantined mid-run",
                [train(15), vec![Poison(1); 4], train(8), chunks.clone()].concat(),
            ),
            (
                "steps skipped by the NaN guard",
                [train(10), vec![Poison(usize::MAX); 2], train(10)].concat(),
            ),
            (
                "transfer resets, one mid-step",
                [
                    train(10),
                    vec![TransferReset],
                    train(5),
                    vec![Chunk, TransferReset],
                    train(5),
                ]
                .concat(),
            ),
            (
                "a checkpoint restored mid-run and mid-step",
                [
                    train(8),
                    vec![Save],
                    train(8),
                    vec![Chunk, Restore],
                    train(8),
                ]
                .concat(),
            ),
            (
                "cloned between steps and mid-step",
                [
                    train(8),
                    vec![Clone],
                    train(4),
                    vec![Chunk, Clone],
                    chunks.clone(),
                ]
                .concat(),
            ),
        ];
        let mut skipped = 0;
        for agents in [2, 3, 5, 24] {
            let config = MaBdqConfig {
                dropout: 0.25,
                gamma: 0.9,
                seed: 40 + agents as u64,
                ..quarantine_test_config(agents)
            };
            for (name, script) in &scripts {
                let plain = MaBdqConfig {
                    quarantine: QuarantineConfig::default(),
                    ..config.clone()
                };
                let config = if name.contains("quarantine") {
                    &config
                } else {
                    &plain
                };
                let serial = split_run(config, script, true);
                let context = format!("K = {agents}, {name}");
                assert_eq!(split_run(config, script, false), serial, "{context}");
                skipped += serial.stats.0.skipped_steps;
                // A quarantine script froze the agent it poisoned.
                for &op in script {
                    if let Poison(k) = op {
                        assert!(k == usize::MAX || serial.tripped[k], "{context}");
                    }
                }
            }
        }
        // The NaN guard's script exercised it.
        assert!(skipped > 0, "{skipped} skipped");
    }

    /// One epoch of a prologue-ahead proof script, as a control loop runs
    /// it: decide, `prepare_step` unless exploiting, simulate, then what the
    /// op says.
    #[derive(Debug, Clone, Copy)]
    enum Epoch {
        /// Observe the transition and take this many train steps.
        Plain(usize),
        /// Stop (`true`) or resume learning after this epoch: no prologue
        /// runs ahead and no step is taken meanwhile.
        Exploit(bool),
        /// The epoch's telemetry was corrupt: nothing is observed.
        Degraded,
        /// The transition's reward is NaN: refused, and the step trains on
        /// what the buffer holds.
        NonFinite,
        /// Save a checkpoint after the epoch.
        Save,
        /// Restore the saved checkpoint between decide and observe.
        Restore,
        /// Transfer-reset between decide and observe.
        Transfer,
        /// The next epoch starts from a fresh state, not this one's next.
        Break,
    }

    /// What the prologue-ahead proof compares: every step's diagnostics and
    /// every decision, then the checkpoint bytes, both networks with their
    /// dropout streams, the replay priorities, the learner's stream and its
    /// counters (those of the prologues aside, returned apart).
    #[derive(Debug, PartialEq)]
    struct AheadRun {
        progress: Vec<String>,
        decisions: Vec<Vec<Vec<usize>>>,
        checkpoint: Vec<u8>,
        nets: String,
        leaves: Vec<u64>,
        rng: Xoshiro256,
        stats: LearnerStats,
    }

    fn ahead_run(config: &MaBdqConfig, script: &[Epoch], ahead: bool) -> (AheadRun, LearnerStats) {
        let mut agent = MaBdq::new(config.clone()).unwrap();
        if !ahead {
            // Nothing runs ahead, nor on a second thread.
            agent.train_serially();
        }
        let mut rng = Xoshiro256::seed_from_u64(config.seed ^ 0xa4ead);
        let mut states = random_transition(&mut rng, config).states;
        let (mut progress, mut decisions) = (Vec::new(), Vec::new());
        let (mut saved, mut exploiting) = (None, false);
        let stats = |s: TrainStats| {
            let bits = [s.loss, s.mean_abs_td, s.grad_norm].map(f32::to_bits);
            format!("{bits:?} {}", s.skipped)
        };
        for &op in script {
            let mut actions = Vec::new();
            agent
                .select_actions_into(&states, 0.3, &mut actions)
                .unwrap();
            if !exploiting {
                agent.prepare_step(&states, &actions);
            }
            let simulated = random_transition(&mut rng, config);
            let mut rewards = simulated.rewards;
            match op {
                Epoch::Restore => agent.load_checkpoint(saved.as_ref().unwrap()).unwrap(),
                Epoch::Transfer => agent.transfer_reset(),
                Epoch::NonFinite => rewards[0] = f32::NAN,
                _ => {}
            }
            if !matches!(op, Epoch::Degraded) {
                let observed =
                    agent.observe_parts(&states, &actions, &rewards, &simulated.next_states);
                match observed {
                    Err(RlError::NonFinite { .. }) => assert!(matches!(op, Epoch::NonFinite)),
                    other => other.unwrap(),
                }
                let steps = if let Epoch::Plain(n) = op { n } else { 1 };
                for _ in 0..if exploiting { 0 } else { steps } {
                    progress.push(format!("{:?}", agent.train_step().unwrap().map(stats)));
                }
            }
            match op {
                Epoch::Exploit(on) => exploiting = on,
                Epoch::Save => saved = Some(agent.save_checkpoint()),
                _ => {}
            }
            decisions.push(actions);
            states = match op {
                Epoch::Break => random_transition(&mut rng, config).states,
                _ => simulated.next_states,
            };
        }
        let all = agent.learner_stats();
        let run = AheadRun {
            progress,
            decisions,
            checkpoint: crate::encode_checkpoint(&agent.save_checkpoint()),
            nets: format!("{:?}", (&*agent.online, &*agent.target)),
            leaves: agent
                .priorities
                .priorities()
                .iter()
                .map(|p| p.to_bits())
                .collect(),
            rng: agent.rng.clone(),
            stats: LearnerStats {
                prologues_ahead: 0,
                prologues_discarded: 0,
                rows_recomputed: 0,
                ..all
            },
        };
        (run, all)
    }

    #[test]
    fn steps_whose_prologue_ran_ahead_equal_serial_steps() {
        use Epoch::*;
        let plain = |n| vec![Plain(1); n];
        let scripts: [(&str, Vec<Epoch>); 8] = [
            ("plain", plain(40)),
            (
                "pure exploitation toggled mid-run",
                [
                    plain(20),
                    vec![Exploit(true)],
                    plain(5),
                    vec![Exploit(false)],
                    plain(10),
                ]
                .concat(),
            ),
            (
                "degraded epochs after a posted decide",
                [
                    plain(20),
                    vec![Degraded, Plain(1), Degraded, Degraded],
                    plain(5),
                ]
                .concat(),
            ),
            (
                "non-finite transitions refused after a posted decide",
                [plain(20), vec![NonFinite, Plain(1), NonFinite], plain(5)].concat(),
            ),
            (
                "a restore and a transfer reset between decide and observe",
                [
                    plain(18),
                    vec![Save],
                    plain(4),
                    vec![Restore],
                    plain(3),
                    vec![Transfer],
                    plain(5),
                ]
                .concat(),
            ),
            ("a full buffer whose overwritten slot is sampled", plain(70)),
            (
                "chain breaks",
                [plain(18), vec![Break, Plain(1), Break, Break], plain(5)].concat(),
            ),
            ("three train steps per epoch", vec![Plain(3); 30]),
        ];
        let helped = two_cpus();
        for agents in [2, 3, 24] {
            let config = MaBdqConfig {
                dropout: 0.25,
                gamma: 0.9,
                seed: 70 + agents as u64,
                ..quarantine_test_config(agents)
            };
            let mut recomputed = 0;
            for (name, script) in &scripts {
                let ring = MaBdqConfig {
                    buffer_capacity: 20,
                    ..config.clone()
                };
                let config = if name.contains("full buffer") {
                    &ring
                } else {
                    &config
                };
                let context = format!("K = {agents}, {name}");
                let (serial, _) = ahead_run(config, script, false);
                let (ahead, counts) = ahead_run(config, script, true);
                assert_eq!(ahead, serial, "{context}");
                if !helped {
                    // One CPU: nothing is posted.
                    assert_eq!(
                        counts.prologues_ahead + counts.prologues_discarded,
                        0,
                        "{context}"
                    );
                    continue;
                }
                assert!(counts.prologues_ahead > 0, "{context}: {counts:?}");
                let steps = counts.steps + counts.skipped_steps;
                if *name == "plain" {
                    // Every step's prologue ran ahead, none was wasted.
                    assert_eq!(
                        (counts.prologues_ahead, counts.prologues_discarded),
                        (steps, 0)
                    );
                }
                let disrupted = ["degraded", "non-finite", "restore"];
                if disrupted.iter().any(|what| name.contains(what)) {
                    // The prologues run ahead of the disruptions went unused.
                    assert!(counts.prologues_discarded > 0, "{context}: {counts:?}");
                }
                if name.contains("full buffer") {
                    assert!(counts.rows_recomputed > 0, "{context}: {counts:?}");
                }
                recomputed += counts.rows_recomputed;
            }
            assert!(
                !helped || recomputed > 0,
                "K = {agents}: no row was recomputed"
            );
        }
    }
}
