use crate::per::{PerBatch, Priorities};
use crate::slab::TransitionSlab;
use crate::{MaBdqCheckpoint, RlError};
use std::ops::Range;
use twig_nn::{Adam, Dense, Dropout, Mlp, QuantizedMlp, Relu, Tape, Tensor};
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
    /// PER importance-sampling exponent β at step 0.
    pub per_beta0: f64,
    /// Steps over which β anneals to 1.
    pub per_beta_steps: u64,
    /// Global gradient-norm clip (0 disables).
    pub grad_clip: f32,
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
            per_beta0: 0.4,
            per_beta_steps: 100_000,
            grad_clip: 10.0,
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

    fn validate(&self) -> Result<(), RlError> {
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
    /// EWMA smoothing factor for the baselines, in (0, 1].
    pub baseline_alpha: f64,
}

impl Default for QuarantineConfig {
    fn default() -> Self {
        QuarantineConfig {
            enabled: false,
            trip_multiple: 8.0,
            warmup_steps: 100,
            probation_steps: 200,
            snapshot_every: 50,
            baseline_alpha: 0.05,
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
        if !(self.baseline_alpha > 0.0 && self.baseline_alpha <= 1.0) {
            return fail(format!("quarantine baseline alpha {}", self.baseline_alpha));
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
    /// The gradient step's working memory: sampled batch, packed states,
    /// targets, the evaluation of the next states, tapes, gradients.
    pub step: usize,
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
        self.networks + self.optimiser + self.step + self.decide + self.guards
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

/// Progress of a resumable micro-batched gradient step (see
/// [`MaBdq::train_step_budgeted`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetedProgress {
    /// The replay buffer holds fewer than `batch_size` transitions; no step
    /// was started.
    NotReady,
    /// A micro-batch of per-agent head passes was consumed; call again to
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
    fn new(config: &MaBdqConfig, rng: &mut Xoshiro256) -> Self {
        let mut trunk = Mlp::new();
        let mut prev = config.agents * config.state_dim;
        for (i, &h) in config.trunk_hidden.iter().enumerate() {
            trunk = trunk
                .push(Dense::new(prev, h, rng))
                .push(Relu::new())
                .push(Dropout::new(
                    config.dropout,
                    config.seed.wrapping_add(i as u64),
                ));
            prev = h;
        }
        let head_input = prev + config.state_dim;
        let head = |out: usize, rng: &mut Xoshiro256, seed: u64| {
            Mlp::new()
                .push(Dense::new(head_input, config.head_hidden, rng))
                .push(Relu::new())
                .push(Dropout::new(config.dropout, seed))
                .push(Dense::new(config.head_hidden, out, rng))
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
        self.trunk.zero_grads();
        for h in self.value_heads.iter_mut().chain(self.adv_heads.iter_mut()) {
            h.zero_grads();
        }
    }

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
        self.trunk.scale_grads(factor);
        for h in self.value_heads.iter_mut().chain(self.adv_heads.iter_mut()) {
            h.scale_grads(factor);
        }
    }

    fn apply(&mut self, adam: &mut Adam) {
        let mut base = self.trunk.apply_with_base(adam, 0);
        for h in self.value_heads.iter_mut().chain(self.adv_heads.iter_mut()) {
            base = h.apply_with_base(adam, base);
        }
    }

    fn copy_weights_from(&mut self, other: &Net) {
        self.trunk
            .copy_weights_from(&other.trunk)
            .expect("same architecture");
        for (dst, src) in self
            .value_heads
            .iter_mut()
            .zip(&other.value_heads)
            .chain(self.adv_heads.iter_mut().zip(&other.adv_heads))
        {
            dst.copy_weights_from(src).expect("same architecture");
        }
    }

    /// Trunk, value heads, advantage heads: the order parameters are
    /// flattened into a checkpoint and handed optimiser ids in.
    fn mlps(&self) -> impl Iterator<Item = &Mlp> {
        std::iter::once(&self.trunk)
            .chain(&self.value_heads)
            .chain(&self.adv_heads)
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
    /// `k*state_dim..`): [`eval_shared`](Self::eval_shared), then
    /// [`eval_heads`](Self::eval_heads) over all `K` agents, so `q[k][d]` is
    /// agent `k`'s `B × n_d` tensor. The decide paths' one pass over a
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
    /// too. The batched layer path never touches dropout RNG streams or
    /// activation caches, which is what lets decisions run between the chunks
    /// of a gradient step.
    fn q_values_fused_into(
        &mut self,
        x: &Tensor,
        state_dim: usize,
        work: &mut EvalWork,
        q: &mut QValues,
    ) {
        self.eval_shared(x, work);
        let agents = self.value_heads.len();
        self.eval_heads(x, 0..agents, state_dim, work, q);
    }

    /// The first stage of an evaluation of `x`, what every agent's heads
    /// read: the trunk's output (`work.trunk_out`) and, with `K > 1`, each
    /// advantage head's first-layer product over it (`work.prefixes[d]`,
    /// `B × head_hidden`, see [`Mlp::prefix_into`]). Every agent's head
    /// input is `[trunk_out | own state]` and the advantage heads' weights
    /// are shared across agents, so those columns go through the first layer
    /// once per batch row however many agents continue from them. With one
    /// agent nothing is shared and no prefix is built.
    fn eval_shared(&mut self, x: &Tensor, work: &mut EvalWork) {
        let EvalWork {
            tape,
            trunk_out,
            prefixes,
            ..
        } = work;
        // The heads run on the same tape, so the trunk's output moves out.
        trunk_out.copy_from(self.trunk.on(tape).forward_batch_scratch(x));
        if self.value_heads.len() > 1 {
            prefixes.resize_with(self.adv_heads.len(), Tensor::default);
            for (head, prefix) in self.adv_heads.iter().zip(prefixes.iter_mut()) {
                head.prefix_into(trunk_out, prefix);
            }
        }
    }

    /// The second stage, for the agents in `agents` only, on what
    /// [`eval_shared`](Self::eval_shared) left in `work` for the same `x`:
    /// `q[k − k0][d]` (`B × n_d`) is agent `k`'s Q-values on branch `d`,
    /// `k0 = agents.start`. Value heads keep per-agent weights, so each is a
    /// `B`-row forward over `[trunk_out | state_k]`. Each shared advantage
    /// head continues its prefix over the agents' own states, stacked
    /// `(k − k0)·B + b` into one `|agents|·B × state_dim` matrix — one
    /// register-tiled GEMM per branch per layer for the whole range. Then
    /// the dueling combine, row by row.
    ///
    /// The range is the caller's to choose: the decide paths take every
    /// agent of a one-row batch, the train step's targets one agent of a
    /// `B`-row batch at a time, so no buffer of theirs has `K·B` rows.
    fn eval_heads(
        &mut self,
        x: &Tensor,
        agents: Range<usize>,
        state_dim: usize,
        work: &mut EvalWork,
        q: &mut QValues,
    ) {
        let batch = x.rows();
        let shared_prefix = self.value_heads.len() > 1;
        let EvalWork {
            tape,
            trunk_out,
            input_k,
            stacked,
            prefixes,
            v_all,
            ..
        } = work;
        let trunk_dim = trunk_out.cols();
        let own = |k: usize, b: usize| &x.row(b)[k * state_dim..(k + 1) * state_dim];
        v_all.clear();
        for k in agents.clone() {
            input_k.resize_zeroed(batch, trunk_dim + state_dim);
            for b in 0..batch {
                let row = input_k.row_mut(b);
                row[..trunk_dim].copy_from_slice(trunk_out.row(b));
                row[trunk_dim..].copy_from_slice(own(k, b));
            }
            let v = self.value_heads[k].on(tape).forward_batch_scratch(input_k);
            v_all.extend((0..batch).map(|b| v[(b, 0)]));
        }
        if shared_prefix {
            stacked.resize_zeroed(agents.len() * batch, state_dim);
            for (j, k) in agents.clone().enumerate() {
                for b in 0..batch {
                    stacked.row_mut(j * batch + b).copy_from_slice(own(k, b));
                }
            }
        }
        q.resize_with(agents.len(), Vec::new);
        for branches in q.iter_mut() {
            branches.resize_with(self.adv_heads.len(), Tensor::default);
        }
        for (d, head) in self.adv_heads.iter_mut().enumerate() {
            let adv = if shared_prefix {
                head.on(tape)
                    .forward_batch_from_prefix_scratch(&prefixes[d], stacked)
            } else {
                // The only agent's head input, left by the value-head loop.
                head.on(tape).forward_batch_scratch(input_k)
            };
            let n_d = adv.cols();
            let n = n_d as f32;
            for (j, branches) in q.iter_mut().enumerate() {
                let qd = &mut branches[d];
                qd.resize_zeroed(batch, n_d);
                for b in 0..batch {
                    // Same arithmetic order as `dueling_combine_into`: copy
                    // the advantage row, then add `V - mean(A)` per element.
                    let arow = adv.row(j * batch + b);
                    let mean: f32 = arow.iter().sum::<f32>() / n;
                    let base = v_all[j * batch + b] - mean;
                    let qrow = qd.row_mut(b);
                    qrow.copy_from_slice(arow);
                    for x in qrow {
                        *x += base;
                    }
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
    /// bit-identical, so results match [`q_values_fused_into`]
    /// (Self::q_values_fused_into) bit-for-bit; the twin-run tests assert
    /// it and `bench_decide` measures what the fusion buys against it.
    fn q_values_per_agent_into(
        &mut self,
        x: &Tensor,
        state_dim: usize,
        work: &mut EvalWork,
        q: &mut QValues,
    ) {
        let batch = x.rows();
        let num_branches = self.adv_heads.len();
        let Net {
            trunk,
            value_heads,
            adv_heads,
        } = self;
        let EvalWork {
            tape,
            trunk_out,
            agent_state,
            input_k,
            v_all,
            ..
        } = work;
        q.resize_with(value_heads.len(), Vec::new);
        for (k, (vh, branches)) in value_heads.iter_mut().zip(q.iter_mut()).enumerate() {
            // The per-agent trunk pass this loop exists to measure: same
            // input, same weights, stateless eval forward — identical bits
            // every iteration.
            trunk_out.copy_from(trunk.on(tape).forward_batch_scratch(x));
            agent_state.resize_zeroed(batch, state_dim);
            for b in 0..batch {
                agent_state
                    .row_mut(b)
                    .copy_from_slice(&x.row(b)[k * state_dim..(k + 1) * state_dim]);
            }
            trunk_out
                .concat_cols_into(agent_state, input_k)
                .expect("same batch");
            v_all.clear();
            v_all.extend_from_slice(vh.on(tape).forward_batch_scratch(input_k).as_slice());
            branches.resize_with(num_branches, Tensor::default);
            for (head, qd) in adv_heads.iter_mut().zip(branches.iter_mut()) {
                let adv = head.on(tape).forward_batch_scratch(input_k);
                dueling_combine_into(v_all, adv, qd);
            }
        }
    }
}

/// `q[j][d]`: the Q-values on branch `d` (`B × n_d`) of the `j`-th agent
/// evaluated, as [`Net::eval_heads`] and [`Net::q_values_per_agent_into`]
/// leave them (agent `j` itself when all `K` are).
type QValues = Vec<Vec<Tensor>>;

/// Working memory of one evaluation of a [`Net`]: the tape its forwards run
/// on and the intermediates between them. Nothing in it outlives the call —
/// the results are the [`QValues`] — so the online and the target network
/// evaluate the same batch on the same `EvalWork`, one after the other.
/// What [`Net::eval_shared`] leaves here is read by every
/// [`Net::eval_heads`] call that follows it on the same batch.
#[derive(Debug, Clone, Default)]
struct EvalWork {
    /// Trunk, then value heads, then advantage heads, each finished (and its
    /// output copied out or consumed) before the next begins.
    tape: Tape,
    /// The trunk's output (`B × trunk_dim`).
    trunk_out: Tensor,
    agent_state: Tensor,
    input_k: Tensor,
    /// Fused path, `K > 1`: the evaluated agents' own states stacked
    /// (`|agents|·B × state_dim`, row `(k − k0)·B + b` = `state_k(b)`).
    stacked: Tensor,
    /// Fused path, `K > 1`: each advantage head's first-layer product over
    /// the trunk columns (`B × head_hidden` per branch), shared by every
    /// agent's rows.
    prefixes: Vec<Tensor>,
    /// State values: fused path, the evaluated agents', flattened
    /// `(k − k0)·B + b`; per-agent path, the current agent's.
    v_all: Vec<f32>,
}

impl EvalWork {
    fn heap_bytes(&self) -> usize {
        let tensors = [
            &self.trunk_out,
            &self.agent_state,
            &self.input_k,
            &self.stacked,
        ];
        self.tape.heap_bytes()
            + tensors_heap_bytes(tensors)
            + tensors_heap_bytes(&self.prefixes)
            + self.prefixes.capacity() * std::mem::size_of::<Tensor>()
            + self.v_all.capacity() * std::mem::size_of::<f32>()
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
    online: Net,
    target: Net,
    adam: Adam,
    /// The replay buffer's index: slot assignment and sampling weights.
    priorities: Priorities,
    /// The replay buffer's storage: the transition in each slot.
    slab: TransitionSlab,
    rng: Xoshiro256,
    stats: LearnerStats,
    telemetry: Telemetry,
    scratch: DecideScratch,
    step: StepState,
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
    /// Working memory of the one-row evaluation. Its tape is the decide
    /// paths' own: a decision may run between the chunks of a budgeted step,
    /// while the step's tapes hold what its epilogue still reads.
    eval: EvalWork,
    /// Online-network evaluations of `x`.
    q_eval: QValues,
}

impl DecideScratch {
    fn heap_bytes(&self) -> usize {
        self.x.heap_bytes() + self.eval.heap_bytes() + q_values_heap_bytes(&self.q_eval)
    }
}

/// The one gradient step's working memory and its resume point. The
/// prologue fills it, each per-agent head pass advances `next_agent`, the
/// epilogue consumes it; [`MaBdq::train_step`] runs the three back to back
/// and [`MaBdq::train_step_budgeted`] returns between head passes. Every
/// buffer keeps its capacity across steps, so both entry points are
/// allocation-free in steady state.
///
/// Between chunks the caller may decide (stateless forwards on
/// [`DecideScratch`]) and [`observe`](MaBdq::observe) (which may overwrite
/// sampled replay slots), so the step owns copies of everything it still
/// needs: the sampled actions, the trunk output, and in `trunk_tape` what
/// the trunk's train-mode forward left for the epilogue's backward pass.
///
/// The four tapes are split by lifetime, not by network. A tape can serve
/// any number of networks as long as each forward-backward pair on it ends
/// before the next pass on it begins: that is why all `K` value heads share
/// `value_tape`, every advantage head shares `adv_tape`, and the online and
/// target evaluations share `eval`.
#[derive(Debug, Clone, Default)]
struct StepState {
    /// A step has started and its epilogue has not run.
    in_flight: bool,
    /// Next agent whose head pass is due; `agents` means only the epilogue
    /// is left.
    next_agent: usize,
    /// PER sample (indices for the priority write-back, importance weights).
    batch: PerBatch,
    /// Joint current-state batch (`B × K*state_dim`).
    x: Tensor,
    /// Joint next-state batch.
    x_next: Tensor,
    /// Sampled actions, flattened `(b * agents + k) * num_branches + d`.
    actions: Vec<u16>,
    /// Working memory of the two evaluations of `x_next`, online then
    /// target, in the prologue; dead once the targets are out.
    eval: EvalWork,
    /// One agent's Q-values of `x_next` (`D` tensors of `B × n_d`): the
    /// online network's, then the target network's, agent after agent.
    q_agent: QValues,
    /// The online network's greedy action on `x_next` (double DQN), per
    /// agent, branch and row: flattened `(k * num_branches + d) * B + b`.
    a_star: Vec<u16>,
    /// TD targets, flattened `b * agents + k`.
    targets: Vec<f32>,
    /// Written by the prologue's train-mode trunk forward, read by the
    /// epilogue's trunk backward, touched by nothing in between.
    trunk_tape: Tape,
    /// The current agent's value head: forward at the top of its head pass,
    /// backward at the bottom (it needs the gradient every advantage head
    /// contributes to), dead when the head pass returns.
    value_tape: Tape,
    /// Each advantage head in turn, forward then backward, inside one head
    /// pass and between the value head's two halves — which is why it cannot
    /// be the value head's tape.
    adv_tape: Tape,
    /// Train-mode trunk activations for the sampled batch.
    trunk_out: Tensor,
    /// `K > 1`: each advantage head's first-layer product over `trunk_out`
    /// (weights are fixed until the epilogue), which every agent's
    /// train-mode forward of that head continues from.
    adv_prefix: Vec<Tensor>,
    /// Trunk gradient accumulated across completed head passes.
    trunk_grad: Tensor,
    /// Weighted TD loss accumulated so far.
    loss: f32,
    /// Per-sample mean |TD| fed back as priorities.
    abs_td: Vec<f64>,
    /// Per-agent summed |TD| this step (quarantine signal; unused when
    /// quarantine is disabled).
    agent_td: Vec<f64>,
    /// Per-agent value-head squared gradient norm this step (quarantine
    /// signal).
    agent_vgrad: Vec<f64>,
    // Head-pass temporaries.
    agent_state: Tensor,
    input_k: Tensor,
    v_grad: Tensor,
    adv_grad: Tensor,
    /// This agent's gradient with respect to `trunk_out`, summed over its
    /// heads (the heads never compute the state columns' share).
    input_grad: Tensor,
}

impl StepState {
    fn heap_bytes(&self) -> usize {
        let tensors = [
            &self.x,
            &self.x_next,
            &self.trunk_out,
            &self.trunk_grad,
            &self.agent_state,
            &self.input_k,
            &self.v_grad,
            &self.adv_grad,
            &self.input_grad,
        ];
        let tapes = [&self.trunk_tape, &self.value_tape, &self.adv_tape];
        let f64s = self.abs_td.capacity() + self.agent_td.capacity() + self.agent_vgrad.capacity();
        tensors_heap_bytes(tensors)
            + tapes.iter().map(|t| t.heap_bytes()).sum::<usize>()
            + self.eval.heap_bytes()
            + q_values_heap_bytes(&self.q_agent)
            + self.adv_prefix.capacity() * std::mem::size_of::<Tensor>()
            + tensors_heap_bytes(&self.adv_prefix)
            + self.batch.indices.capacity() * std::mem::size_of::<usize>()
            + (self.batch.weights.capacity() + self.targets.capacity()) * std::mem::size_of::<f32>()
            + (self.actions.capacity() + self.a_star.capacity()) * std::mem::size_of::<u16>()
            + f64s * std::mem::size_of::<f64>()
    }
}

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
        let adam = Adam::new(config.lr);
        let priorities = Priorities::new(
            config.buffer_capacity,
            config.per_alpha,
            config.per_beta0,
            config.per_beta_steps,
        );
        let slab = TransitionSlab::new(
            config.agents,
            config.state_dim,
            config.branches.len(),
            config.buffer_capacity,
        );
        let mut agent = MaBdq {
            config,
            online,
            target,
            adam,
            priorities,
            slab,
            rng,
            stats: LearnerStats::default(),
            telemetry: Telemetry::disabled(),
            scratch: DecideScratch::default(),
            step: StepState::default(),
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

    /// Replaces the quarantine configuration at runtime, validating it and
    /// resetting every agent's baselines, snapshot and probation state.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::InvalidConfig`] for invalid thresholds.
    pub fn set_quarantine(&mut self, quarantine: QuarantineConfig) -> Result<(), RlError> {
        quarantine.validate()?;
        self.config.quarantine = quarantine;
        self.rebuild_guards();
        Ok(())
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
                snapshot: vh.export_parameters(),
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
                online.value_heads[k].export_parameters_into(&mut guard.snapshot);
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
                guard.td_baseline += q.baseline_alpha * (td - guard.td_baseline);
                guard.grad_baseline += q.baseline_alpha * (grad - guard.grad_baseline);
            }
            guard.baseline_samples += 1;
            guard.snapshot_age += 1;
            if guard.snapshot_age >= q.snapshot_every {
                online.value_heads[k].export_parameters_into(&mut guard.snapshot);
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
            networks: self.online.heap_bytes() + self.target.heap_bytes(),
            optimiser: self.adam.heap_bytes(),
            step: self.step.heap_bytes(),
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
    /// ([`Net::q_values_fused_into`]): all `K` agents' shared-weight
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
        self.check_states(states)?;
        self.pack_joint_state(states);
        let DecideScratch { x, eval, q_eval } = &mut self.scratch;
        self.online
            .q_values_fused_into(x, self.config.state_dim, eval, q_eval);
        Ok(())
    }

    /// Per-agent reference implementation of
    /// [`select_actions_into`](Self::select_actions_into): every agent
    /// forwards the shared trunk itself and runs one head forward per
    /// branch — no batching, no cross-agent reuse
    /// ([`Net::q_values_per_agent_into`]). Draws the same RNG stream and
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
        self.check_states(states)?;
        self.pack_joint_state(states);
        let DecideScratch { x, eval, q_eval } = &mut self.scratch;
        self.online
            .q_values_per_agent_into(x, self.config.state_dim, eval, q_eval);
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
    /// single-batch head forwards ([`Net::q_values_per_agent_into`]) — kept
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
        self.check_states(states)?;
        self.pack_joint_state(states);
        let DecideScratch { x, eval, q_eval } = &mut self.scratch;
        self.online
            .q_values_per_agent_into(x, self.config.state_dim, eval, q_eval);
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
        let state_dim = self.config.state_dim;
        self.scratch
            .x
            .resize_zeroed(1, self.config.agents * state_dim);
        let row = self.scratch.x.row_mut(0);
        for (k, s) in states.iter().enumerate() {
            row[k * state_dim..(k + 1) * state_dim].copy_from_slice(s);
        }
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
        self.check_states(states)?;
        self.check_states(next_states)?;
        if actions.len() != self.config.agents
            || rewards.len() != self.config.agents
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
        let slot = self.priorities.push();
        self.slab.write(slot, states, actions, rewards, next_states);
        self.telemetry
            .gauge_set("rl.buffer_len", self.priorities.len() as f64);
        Ok(())
    }

    /// One gradient step on a prioritised minibatch (Algorithm 1 line 13).
    /// Returns `None` when the buffer has fewer than `batch_size`
    /// transitions.
    ///
    /// This is [`train_step_budgeted`](Self::train_step_budgeted) with a
    /// budget of all `K` agents: the same prologue, head passes and
    /// epilogue, run back to back. Steady-state allocation-free: every
    /// tensor — joint states, head inputs, gradients, targets — lives in
    /// the reused step state. A budgeted step still in flight is aborted
    /// first: its partial gradients are discarded rather than mixed with a
    /// second minibatch.
    ///
    /// # Errors
    ///
    /// Propagates replay-buffer errors.
    pub fn train_step(&mut self) -> Result<Option<TrainStats>, RlError> {
        self.abort_budgeted_step();
        if !self.begin_step()? {
            return Ok(None);
        }
        for _ in 0..self.config.agents {
            self.head_pass();
        }
        Ok(Some(self.finish_step()))
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
    /// transfer reset).
    fn abort_budgeted_step(&mut self) {
        if self.step.in_flight {
            self.step.in_flight = false;
            self.online.zero_grads();
        }
    }

    /// [`train_step`](Self::train_step) split into resumable micro-batches
    /// for deadline-aware scheduling: each call runs the per-agent head
    /// passes for up to `max_agents` agents (at least one), then returns.
    /// The first call samples the minibatch, computes targets and runs the
    /// trunk forward; the call that finishes the last agent also runs the
    /// epilogue (gradient rescaling, trunk backward, NaN guard, clip, Adam,
    /// priority write-back, target sync, quarantine scan) and returns
    /// [`BudgetedProgress::Done`].
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
    pub fn train_step_budgeted(&mut self, max_agents: usize) -> Result<BudgetedProgress, RlError> {
        if !self.step.in_flight && !self.begin_step()? {
            return Ok(BudgetedProgress::NotReady);
        }
        let agents = self.config.agents;
        let end = (self.step.next_agent + max_agents.max(1)).min(agents);
        while self.step.next_agent < end {
            self.head_pass();
        }
        if self.step.next_agent < agents {
            return Ok(BudgetedProgress::InProgress {
                agents_done: self.step.next_agent,
                agents_total: agents,
            });
        }
        Ok(BudgetedProgress::Done(self.finish_step()))
    }

    /// Prologue of the gradient step: re-admits agents out of probation,
    /// samples the minibatch, packs states and actions out of the replay
    /// buffer, computes double-DQN targets, zeroes gradients and runs the
    /// train-mode trunk forward. Returns `false` (nothing started) when the
    /// buffer is below `batch_size`.
    fn begin_step(&mut self) -> Result<bool, RlError> {
        let batch_size = self.config.batch_size;
        if self.priorities.len() < batch_size {
            return Ok(false);
        }
        let agents = self.config.agents;
        let num_branches = self.config.branches.len();
        let gamma = self.config.gamma;
        let state_dim = self.config.state_dim;
        if self.config.quarantine.enabled {
            self.quarantine_readmit();
        }
        let step = &mut self.step;

        self.priorities
            .sample_into(batch_size, &mut self.rng, &mut step.batch)?;

        step.x.resize_zeroed(batch_size, agents * state_dim);
        step.x_next.resize_zeroed(batch_size, agents * state_dim);
        step.actions.clear();
        for (b, &idx) in step.batch.indices.iter().enumerate() {
            step.x.row_mut(b).copy_from_slice(self.slab.states(idx));
            step.x_next
                .row_mut(b)
                .copy_from_slice(self.slab.next_states(idx));
            step.actions.extend_from_slice(self.slab.actions(idx));
        }

        // Targets: double-DQN style, averaged over branches. Each network
        // evaluates `x_next` one agent at a time, and what a row's target
        // needs of its Q-values — the online argmax, then the target value
        // there — is taken as each agent's block comes out.
        let StepState {
            x_next,
            eval,
            q_agent,
            a_star,
            targets,
            batch,
            ..
        } = step;
        self.online.eval_shared(x_next, eval);
        a_star.clear();
        for k in 0..agents {
            self.online
                .eval_heads(x_next, k..k + 1, state_dim, eval, q_agent);
            for qd in &q_agent[0] {
                a_star.extend((0..batch_size).map(|b| {
                    u16::try_from(argmax(qd.row(b)))
                        .expect("validate keeps every branch within 2^16 actions")
                }));
            }
        }
        self.target.eval_shared(x_next, eval);
        targets.clear();
        targets.resize(batch_size * agents, 0.0);
        for (k, chosen) in a_star.chunks_exact(num_branches * batch_size).enumerate() {
            self.target
                .eval_heads(x_next, k..k + 1, state_dim, eval, q_agent);
            for b in 0..batch_size {
                let mut acc = 0.0;
                for (d, qd) in q_agent[0].iter().enumerate() {
                    acc += qd[(b, usize::from(chosen[d * batch_size + b]))];
                }
                let reward = self.slab.rewards(batch.indices[b])[k];
                targets[b * agents + k] = reward + gamma * acc / num_branches as f32;
            }
        }

        self.online.zero_grads();
        let trunk = self.online.trunk.on(&mut step.trunk_tape);
        step.trunk_out
            .copy_from(trunk.forward_scratch(&step.x, true));
        step.trunk_grad
            .resize_zeroed(batch_size, step.trunk_out.cols());
        if agents > 1 {
            step.adv_prefix.resize_with(num_branches, Tensor::default);
            for (head, prefix) in self.online.adv_heads.iter().zip(&mut step.adv_prefix) {
                head.prefix_into(&step.trunk_out, prefix);
            }
        }
        step.abs_td.clear();
        step.abs_td.resize(batch_size, 0.0);
        step.agent_td.clear();
        step.agent_td.resize(agents, 0.0);
        step.agent_vgrad.clear();
        step.agent_vgrad.resize(agents, 0.0);
        step.loss = 0.0;
        step.next_agent = 0;
        step.in_flight = true;
        Ok(true)
    }

    /// Head pass of the next due agent: its value head and every advantage
    /// head forward (train mode) and backward on the sampled batch,
    /// accumulating loss, |TD|, head gradients and the trunk gradient.
    fn head_pass(&mut self) {
        let batch_size = self.config.batch_size;
        let agents = self.config.agents;
        let num_branches = self.config.branches.len();
        let state_dim = self.config.state_dim;
        let quarantine_on = self.config.quarantine.enabled;
        let norm = (batch_size * agents * num_branches) as f32;
        let step = &mut self.step;
        let k = step.next_agent;
        step.next_agent += 1;
        // A quarantined agent contributes nothing this step: no forward, no
        // loss term, no gradient, no replay priority. The remaining K−1
        // agents train exactly as usual (probation is time-based, so
        // nothing needs measuring here either).
        if quarantine_on && self.guards[k].frozen_until > 0 {
            return;
        }
        let vh = &mut self.online.value_heads[k];
        step.agent_state.resize_zeroed(batch_size, state_dim);
        for b in 0..batch_size {
            step.agent_state
                .row_mut(b)
                .copy_from_slice(&step.x.row(b)[k * state_dim..(k + 1) * state_dim]);
        }
        step.trunk_out
            .concat_cols_into(&step.agent_state, &mut step.input_k)
            .expect("same batch");
        let v = vh
            .on(&mut step.value_tape)
            .forward_scratch(&step.input_k, true);
        let trunk_dim = step.trunk_out.cols();
        step.v_grad.resize_zeroed(batch_size, 1);
        step.input_grad.resize_zeroed(batch_size, trunk_dim);

        for (d, head) in self.online.adv_heads.iter_mut().enumerate() {
            let pass = head.on(&mut step.adv_tape);
            let adv = if agents > 1 {
                pass.forward_from_prefix_scratch(
                    &step.adv_prefix[d],
                    &step.trunk_out,
                    &step.agent_state,
                    true,
                )
            } else {
                pass.forward_scratch(&step.input_k, true)
            };
            let n = adv.cols();
            step.adv_grad.resize_zeroed(batch_size, n);
            for b in 0..batch_size {
                let a = usize::from(step.actions[(b * agents + k) * num_branches + d]);
                let row = adv.row(b);
                let mean: f32 = row.iter().sum::<f32>() / n as f32;
                let q = v[(b, 0)] + row[a] - mean;
                let delta = q - step.targets[b * agents + k];
                step.abs_td[b] += (delta.abs() / (agents * num_branches) as f32) as f64;
                if quarantine_on {
                    step.agent_td[k] += f64::from(delta.abs());
                }
                let w = step.batch.weights[b];
                step.loss += w * delta * delta / norm;
                let g = 2.0 * w * delta / norm;
                let grow = step.adv_grad.row_mut(b);
                for (j, gj) in grow.iter_mut().enumerate() {
                    let indicator = if j == a { 1.0 } else { 0.0 };
                    *gj = g * (indicator - 1.0 / n as f32);
                }
                step.v_grad[(b, 0)] += g;
            }
            let gin = head
                .on(&mut step.adv_tape)
                .backward_cols_scratch(&step.adv_grad, trunk_dim);
            step.input_grad.add_assign(gin).expect("same shape");
        }
        let gin_v = vh
            .on(&mut step.value_tape)
            .backward_cols_scratch(&step.v_grad, trunk_dim);
        step.input_grad.add_assign(gin_v).expect("same shape");
        if quarantine_on {
            step.agent_vgrad[k] = f64::from(vh.grad_sq_norm());
        }
        step.trunk_grad
            .add_assign(&step.input_grad)
            .expect("same shape");
    }

    /// Epilogue of the gradient step: Section III-A rescaling, trunk
    /// backward, NaN guard, clipping, Adam, priority write-back, target sync
    /// and quarantine scan.
    fn finish_step(&mut self) -> TrainStats {
        let batch_size = self.config.batch_size;
        let agents = self.config.agents;
        let num_branches = self.config.branches.len();
        self.step.in_flight = false;

        // 1/K into the deepest advantage layers, 1/D into the shared
        // representation.
        for head in self.online.adv_heads.iter_mut() {
            head.scale_grads(1.0 / agents as f32);
        }
        self.step.trunk_grad.scale(1.0 / num_branches as f32);
        // The trunk's input is data: nobody reads a gradient for it.
        self.online
            .trunk
            .on(&mut self.step.trunk_tape)
            .backward_cols_scratch(&self.step.trunk_grad, 0);

        let loss = self.step.loss;
        let mean_abs_td = (self.step.abs_td.iter().sum::<f64>() / batch_size as f64) as f32;
        let grad_norm = self.online.grad_sq_norm().sqrt();
        // NaN guard: a numerically blown-up minibatch (non-finite loss or
        // gradients) must not reach the weights — one bad Adam step can
        // permanently poison the network. Skip the update and report it.
        let skipped = !loss.is_finite() || !grad_norm.is_finite();
        if skipped {
            self.online.zero_grads();
            self.stats.bump(&self.telemetry, |s| &mut s.skipped_steps);
        } else {
            // Global-norm clipping, then Adam.
            if self.config.grad_clip > 0.0 && grad_norm > self.config.grad_clip {
                self.online
                    .scale_all_grads(self.config.grad_clip / grad_norm);
            }
            self.online.apply(&mut self.adam);
            self.priorities
                .update_priorities(&self.step.batch.indices, &self.step.abs_td);
            self.stats.bump(&self.telemetry, |s| &mut s.steps);
            if self
                .stats
                .steps
                .is_multiple_of(self.config.target_update_every)
            {
                self.target.copy_weights_from(&self.online);
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
        self.abort_budgeted_step();
        for head in self
            .online
            .value_heads
            .iter_mut()
            .chain(self.online.adv_heads.iter_mut())
        {
            head.reinitialize_last_dense(&mut self.rng);
        }
        self.adam.reset_state();
        self.target.copy_weights_from(&self.online);
    }

    /// Flattened weights of the online trunk (for transfer-learning tests).
    pub fn trunk_weights(&self) -> Vec<f32> {
        self.online.trunk.export_weights()
    }

    /// Whether a checkpoint's optimiser slots fit this learner. The frame's
    /// integrity check says nothing about what they mean, and a slot that
    /// does not fit the parameter tensor the optimiser updates under its id
    /// panics in the next train step. So: either no moments (no step yet, or
    /// a transfer reset) or one slot per tensor, ids `0..n` in the order
    /// [`Net::apply`] hands them out, each as long as its tensor.
    fn moments_fit(&self, slots: &[twig_nn::AdamSlot]) -> Result<(), String> {
        if slots.is_empty() {
            return Ok(());
        }
        let mut lens = self.online.mlps().flat_map(Mlp::parameter_lens);
        let mut slots = slots.iter().enumerate();
        loop {
            match (slots.next(), lens.next()) {
                (None, None) => return Ok(()),
                (Some((id, s)), Some(len))
                    if s.id == id && s.m.len() == len && s.v.len() == len => {}
                (Some((at, s)), Some(len)) => {
                    return Err(format!(
                        "optimizer slot {at} has id {} and {} + {} moments, \
                         parameter tensor {at} has {len} elements",
                        s.id,
                        s.m.len(),
                        s.v.len()
                    ));
                }
                (Some((at, _)), None) => {
                    return Err(format!("optimizer slot {at} has no parameter tensor"));
                }
                (None, Some(_)) => {
                    return Err("optimizer moments end before the parameters do".into());
                }
            }
        }
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
        let mut params = self.online.trunk.export_parameters();
        for head in self
            .online
            .value_heads
            .iter()
            .chain(self.online.adv_heads.iter())
        {
            params.extend(head.export_parameters());
        }
        MaBdqCheckpoint {
            agents: self.config.agents,
            state_dim: self.config.state_dim,
            branches: self.config.branches.clone(),
            trunk_hidden: self.config.trunk_hidden.clone(),
            head_hidden: self.config.head_hidden,
            params,
            adam: self.adam.export_state(),
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
        // budgeted step is now meaningless.
        self.abort_budgeted_step();
        let mut offset = self.online.trunk.param_count();
        self.online
            .trunk
            .import_parameters(&ckpt.params[..offset])
            .expect("length checked");
        for head in self
            .online
            .value_heads
            .iter_mut()
            .chain(self.online.adv_heads.iter_mut())
        {
            let n = head.param_count();
            head.import_parameters(&ckpt.params[offset..offset + n])
                .expect("length checked");
            offset += n;
        }
        self.adam.import_state(&ckpt.adam);
        self.stats.steps = ckpt.steps;
        self.stats.skipped_steps = ckpt.skipped_steps;
        self.priorities.set_anneal_step(ckpt.per_step);
        self.priorities.set_max_priority(ckpt.per_max_priority);
        self.priorities.restore_priorities(&ckpt.priorities);
        self.target.copy_weights_from(&self.online);
        self.rebuild_guards();
        Ok(())
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
            per_beta_steps: 100,
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
        let head = &mut agent.online.value_heads[0];
        let mut params = head.export_parameters();
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
            agent.online.trunk.export_weights(),
            agent.target.trunk.export_weights()
        );
    }

    #[test]
    fn transfer_reset_keeps_trunk() {
        let mut agent = MaBdq::new(tiny_config(1)).unwrap();
        let trunk_before = agent.trunk_weights();
        let head_before = agent.online.adv_heads[0].export_weights();
        agent.transfer_reset();
        assert_eq!(agent.trunk_weights(), trunk_before);
        assert_ne!(agent.online.adv_heads[0].export_weights(), head_before);
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
        ckpt.adam.slots.push(twig_nn::AdamSlot {
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
        assert!(agent.begin_step().unwrap());
        agent.head_pass();
        let nets = format!("{:?}", agent.online);
        let (loss, abs_td, trunk_grad) = (
            agent.step.loss,
            agent.step.abs_td.clone(),
            agent.step.trunk_grad.clone(),
        );
        agent.head_pass();
        assert_eq!(agent.step.next_agent, 2);
        assert_eq!(format!("{:?}", agent.online), nets);
        assert_eq!(agent.step.loss.to_bits(), loss.to_bits());
        assert_eq!(agent.step.abs_td, abs_td);
        assert_eq!(agent.step.trunk_grad, trunk_grad);
        // The next live agent does draw.
        agent.head_pass();
        assert_ne!(format!("{:?}", agent.online), nets);
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
            assert_eq!(!agent.step.adv_prefix.is_empty(), split);
            for (work, rows) in [(&agent.step.eval, batch), (&agent.scratch.eval, agents)] {
                assert_eq!(work.stacked.rows(), if split { rows } else { 0 });
                assert_eq!(work.prefixes.len(), if split { branches } else { 0 });
                assert!(work
                    .prefixes
                    .iter()
                    .all(|p| p.rows() == work.trunk_out.rows()));
            }
            assert_eq!(agent.step.q_agent.len(), 1);
            assert_eq!(agent.step.a_star.len(), agents * branches * batch);
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
            QuarantineConfig {
                baseline_alpha: 0.0,
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
        let mut net = Net::new(&config, &mut rng);
        let mut x = Tensor::zeros(batch, config.agents * state_dim);
        for v in x.as_mut_slice() {
            *v = rng.range_f64(-1.0, 1.0) as f32;
        }
        // One working memory for both: nothing of an evaluation outlives it
        // but its Q-values.
        let mut work = EvalWork::default();
        let (mut fused, mut reference) = (QValues::new(), QValues::new());
        net.q_values_fused_into(&x, state_dim, &mut work, &mut fused);
        net.q_values_per_agent_into(&x, state_dim, &mut work, &mut reference);
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
        net: &mut Net,
        x: &Tensor,
        state_dim: usize,
        context: &str,
    ) {
        let agents = net.value_heads.len();
        let mut work = EvalWork::default();
        let (mut reference, mut q) = (QValues::new(), QValues::new());
        net.q_values_per_agent_into(x, state_dim, &mut work, &mut reference);
        for group in [1, 3, agents] {
            net.eval_shared(x, &mut work);
            for start in (0..agents).step_by(group) {
                let range = start..(start + group).min(agents);
                net.eval_heads(x, range.clone(), state_dim, &mut work, &mut q);
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
                for (name, net) in [("online", &mut agent.online), ("target", &mut agent.target)] {
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
        let mut params = head.export_parameters();
        let (last_w, last_b) = (w1 + b1, w1 + b1 + w2);
        for row in params[last_w..last_b].chunks_exact_mut(actions) {
            row[1] = row[0];
        }
        params[last_b] = 100.0;
        params[last_b + 1] = 100.0;
        head.import_parameters(&params).unwrap();
    }

    /// The targets as the parent of this change computed them: both
    /// networks' Q-values for all `K` agents at once (`K·B` stacked rows),
    /// kept whole, then the loop. Also returns the target network's table.
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
        let mut work = EvalWork::default();
        let (mut q_online, mut q_target) = (QValues::new(), QValues::new());
        online.q_values_fused_into(&step.x_next, config.state_dim, &mut work, &mut q_online);
        target.q_values_fused_into(&step.x_next, config.state_dim, &mut work, &mut q_target);
        let mut targets = vec![0.0; batch * agents];
        for k in 0..agents {
            for b in 0..batch {
                let mut acc = 0.0;
                for d in 0..branches {
                    let a_star = argmax(q_online[k][d].row(b));
                    acc += q_target[k][d][(b, a_star)];
                }
                let reward = slab.rewards(step.batch.indices[b])[k];
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
                    tie_first_two_actions(&mut agent.online.adv_heads[0]);
                }
                assert!(agent.begin_step().unwrap());
                let (want, q_target) = targets_from_full_q_tables(&mut agent);
                let context = format!("K = {agents}, round {round}");
                assert_eq!(bits(&agent.step.targets), bits(&want), "{context}");
                if tied {
                    let chosen = agent.step.a_star.chunks_exact(branches * batch);
                    for (k, (a_star, q)) in chosen.zip(&q_target).enumerate() {
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
                for _ in 0..agents {
                    agent.head_pass();
                }
                assert!(!agent.finish_step().skipped, "{context}");
                agent.observe(random_transition(&mut rng, &config)).unwrap();
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
}
