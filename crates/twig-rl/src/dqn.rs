use crate::per::{PerBatch, Priorities};
use crate::{MaBdqConfig, RlError};
use twig_nn::{Adam, Dense, Dropout, Mlp, Relu, Tensor};
use twig_stats::rng::{Rng, Xoshiro256};

#[derive(Debug, Clone)]
struct JointTransition {
    state: Vec<f32>,
    action: usize,
    reward: f32,
    next_state: Vec<f32>,
}

/// A vanilla deep Q-network over a *joint* discrete action space —
/// the architecture Section II-B1 describes and rejects: "deploying vanilla
/// DQNs means that a single instance requires combinations of actions,
/// leading to an action-space combinatorial explosion".
///
/// Provided so the branching-vs-joint design choice can be ablated (the
/// `ablation` experiment) and so downstream users have a baseline learner.
/// It trains at the hyper-parameters of an [`MaBdqConfig`]: the BDQ's trunk
/// widths become its hidden layers, and one output per joint action
/// replaces the BDQ's heads and branches.
///
/// # Examples
///
/// ```
/// use twig_rl::{Dqn, MaBdqConfig};
///
/// let learner = MaBdqConfig {
///     state_dim: 2,
///     trunk_hidden: vec![16],
///     ..MaBdqConfig::default()
/// };
/// let mut dqn = Dqn::new(&learner, 4).unwrap();
/// let a = dqn.select_action(&[0.1, 0.9], 0.0).unwrap();
/// assert!(a < 4);
/// ```
#[derive(Debug, Clone)]
pub struct Dqn {
    state_dim: usize,
    actions: usize,
    gamma: f32,
    batch_size: usize,
    target_update_every: u64,
    online: Mlp,
    target: Mlp,
    adam: Adam,
    /// The replay buffer: transitions in the slots `priorities` hands out.
    transitions: Vec<JointTransition>,
    priorities: Priorities,
    rng: Xoshiro256,
    steps: u64,
}

impl Dqn {
    /// Builds the online and target networks over `actions` joint actions,
    /// at `learner`'s state width, trunk widths (as the hidden layers),
    /// dropout, optimiser, replay and seed. `learner`'s `agents`,
    /// `branches`, `head_hidden`, `grad_clip` and `quarantine` describe the
    /// BDQ only and are not read.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::InvalidConfig`] for zero actions or a learner
    /// config [`MaBdq::new`](crate::MaBdq::new) would reject.
    pub fn new(learner: &MaBdqConfig, actions: usize) -> Result<Self, RlError> {
        learner.validate()?;
        if actions == 0 {
            return Err(RlError::InvalidConfig {
                detail: "zero joint actions".into(),
            });
        }
        let mut rng = Xoshiro256::seed_from_u64(learner.seed);
        let build = |rng: &mut Xoshiro256| {
            let mut net = Mlp::new();
            let mut prev = learner.state_dim;
            for (i, &h) in learner.trunk_hidden.iter().enumerate() {
                net = net
                    .push(Dense::new(prev, h, rng))
                    .push(Relu::new())
                    .push(Dropout::new(
                        learner.dropout,
                        learner.seed.wrapping_add(i as u64),
                    ));
                prev = h;
            }
            net.push(Dense::new(prev, actions, rng))
        };
        let online = build(&mut rng);
        let mut target = build(&mut rng);
        target
            .copy_weights_from(&online)
            .expect("same architecture");
        let adam = Adam::new(learner.lr);
        let priorities = Priorities::new(
            learner.buffer_capacity,
            learner.per_alpha,
            learner.per_beta0,
            learner.per_beta_steps,
        );
        Ok(Dqn {
            state_dim: learner.state_dim,
            actions,
            gamma: learner.gamma,
            batch_size: learner.batch_size,
            target_update_every: learner.target_update_every,
            online,
            target,
            adam,
            transitions: Vec::new(),
            priorities,
            rng,
            steps: 0,
        })
    }

    /// Completed gradient steps.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Buffered transitions.
    pub fn buffer_len(&self) -> usize {
        self.transitions.len()
    }

    /// Trainable parameter count — grows with the *product* of the action
    /// dimensions, the explosion the BDQ avoids.
    pub fn param_count(&self) -> usize {
        self.online.param_count()
    }

    fn check_state(&self, state: &[f32]) -> Result<(), RlError> {
        if state.len() != self.state_dim {
            return Err(RlError::DimensionMismatch {
                detail: format!("state {} != {}", state.len(), self.state_dim),
            });
        }
        Ok(())
    }

    /// Q-values for one state.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::DimensionMismatch`] for a wrongly sized state.
    pub fn q_values(&mut self, state: &[f32]) -> Result<Vec<f32>, RlError> {
        self.check_state(state)?;
        Ok(self
            .online
            .forward(&Tensor::from_row(state), false)
            .row(0)
            .to_vec())
    }

    /// ε-greedy action selection over the joint action space.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::DimensionMismatch`] for a wrongly sized state.
    pub fn select_action(&mut self, state: &[f32], epsilon: f64) -> Result<usize, RlError> {
        self.check_state(state)?;
        if self.rng.next_f64() < epsilon {
            return Ok(self.rng.range_usize(0, self.actions));
        }
        let q = self.q_values(state)?;
        Ok(argmax(&q))
    }

    /// Stores one transition.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::DimensionMismatch`] for a wrongly shaped
    /// transition.
    pub fn observe(
        &mut self,
        state: &[f32],
        action: usize,
        reward: f32,
        next_state: &[f32],
    ) -> Result<(), RlError> {
        self.check_state(state)?;
        self.check_state(next_state)?;
        if action >= self.actions {
            return Err(RlError::DimensionMismatch {
                detail: format!("action {action} out of {}", self.actions),
            });
        }
        let t = JointTransition {
            state: state.to_vec(),
            action,
            reward,
            next_state: next_state.to_vec(),
        };
        // A new transition enters at the running maximum priority, so it is
        // replayed at least once.
        let slot = self.priorities.push();
        if slot == self.transitions.len() {
            self.transitions.push(t);
        } else {
            self.transitions[slot] = t;
        }
        Ok(())
    }

    /// One double-DQN gradient step; `None` until a full batch is buffered.
    ///
    /// # Errors
    ///
    /// Propagates replay errors.
    pub fn train_step(&mut self) -> Result<Option<f32>, RlError> {
        if self.transitions.len() < self.batch_size {
            return Ok(None);
        }
        let batch_size = self.batch_size;
        let mut batch = PerBatch::default();
        self.priorities
            .sample_into(batch_size, &mut self.rng, &mut batch)?;
        let transitions: Vec<&JointTransition> = batch
            .indices
            .iter()
            .map(|&i| &self.transitions[i])
            .collect();

        let next = Tensor::from_rows(
            &transitions
                .iter()
                .map(|t| t.next_state.clone())
                .collect::<Vec<_>>(),
        )
        .expect("rectangular batch");
        let q_next_online = self.online.forward(&next, false);
        let q_next_target = self.target.forward(&next, false);
        let x = Tensor::from_rows(
            &transitions
                .iter()
                .map(|t| t.state.clone())
                .collect::<Vec<_>>(),
        )
        .expect("rectangular batch");
        let q = self.online.forward(&x, true);

        let mut grad = Tensor::zeros(batch_size, self.actions);
        let mut loss = 0.0f32;
        let mut abs_td = Vec::with_capacity(batch_size);
        for (b, t) in transitions.iter().enumerate() {
            let a_star = argmax(q_next_online.row(b));
            let y = t.reward + self.gamma * q_next_target[(b, a_star)];
            let delta = q[(b, t.action)] - y;
            let w = batch.weights[b];
            loss += w * delta * delta / batch_size as f32;
            grad[(b, t.action)] = 2.0 * w * delta / batch_size as f32;
            abs_td.push(delta.abs() as f64);
        }
        self.online.zero_grads();
        self.online.backward(&grad);
        self.online.apply(&mut self.adam);
        self.priorities.update_priorities(&batch.indices, &abs_td);
        self.steps += 1;
        if self.steps.is_multiple_of(self.target_update_every) {
            self.target
                .copy_weights_from(&self.online)
                .expect("same architecture");
        }
        Ok(Some(loss))
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

    fn tiny() -> MaBdqConfig {
        MaBdqConfig {
            state_dim: 2,
            trunk_hidden: vec![24],
            dropout: 0.0,
            lr: 0.01,
            gamma: 0.0,
            batch_size: 16,
            buffer_capacity: 2048,
            seed: 5,
            ..MaBdqConfig::default()
        }
    }

    #[test]
    fn config_validation() {
        let with = |learner: MaBdqConfig| Dqn::new(&learner, 4);
        assert!(with(tiny()).is_ok());
        assert!(Dqn::new(&tiny(), 0).is_err());
        assert!(with(MaBdqConfig {
            state_dim: 0,
            ..tiny()
        })
        .is_err());
        assert!(with(MaBdqConfig {
            trunk_hidden: vec![],
            ..tiny()
        })
        .is_err());
        assert!(with(MaBdqConfig {
            dropout: 1.0,
            ..tiny()
        })
        .is_err());
        assert!(with(MaBdqConfig {
            batch_size: 0,
            ..tiny()
        })
        .is_err());
    }

    #[test]
    fn rejects_bad_shapes() {
        let mut dqn = Dqn::new(&tiny(), 4).unwrap();
        assert!(dqn.select_action(&[0.0], 0.0).is_err());
        assert!(dqn.observe(&[0.0, 0.0], 9, 0.0, &[0.0, 0.0]).is_err());
        assert!(dqn.observe(&[0.0], 0, 0.0, &[0.0, 0.0]).is_err());
    }

    #[test]
    fn learns_contextual_bandit() {
        let mut dqn = Dqn::new(&tiny(), 4).unwrap();
        let mut rng = Xoshiro256::seed_from_u64(1);
        // Action = context (0..4) pays off.
        for step in 0..800 {
            let ctx = rng.range_usize(0, 4);
            let state = vec![(ctx % 2) as f32, (ctx / 2) as f32];
            let eps = (1.0 - step as f64 / 400.0).max(0.05);
            let a = dqn.select_action(&state, eps).unwrap();
            let r = if a == ctx { 1.0 } else { 0.0 };
            dqn.observe(&state, a, r, &state).unwrap();
            dqn.train_step().unwrap();
        }
        for ctx in 0..4usize {
            let state = vec![(ctx % 2) as f32, (ctx / 2) as f32];
            assert_eq!(
                dqn.select_action(&state, 0.0).unwrap(),
                ctx,
                "wrong greedy action for context {ctx}"
            );
        }
    }

    #[test]
    fn joint_action_space_costs_more_parameters_than_branching() {
        // The Section II-B1 argument in numbers: same hidden sizes, joint
        // 18x9 output vs branched 18+9 outputs.
        let dqn = Dqn::new(&MaBdqConfig::default(), 18 * 9).unwrap();
        let bdq = crate::MaBdq::new(MaBdqConfig::default()).unwrap();
        assert!(dqn.param_count() > 0);
        // The BDQ's output layers scale with 18 + 9, the DQN's with 162.
        let dqn_out_params = 64 * 162 + 162;
        let bdq_out_params = 48 * (18 + 9) + 27;
        assert!(dqn_out_params > 5 * bdq_out_params);
        let _ = bdq.param_count();
    }

    #[test]
    fn train_none_until_batch() {
        let mut dqn = Dqn::new(&tiny(), 4).unwrap();
        assert_eq!(dqn.train_step().unwrap(), None);
        for _ in 0..16 {
            dqn.observe(&[0.0, 0.0], 0, 1.0, &[0.0, 0.0]).unwrap();
        }
        assert!(dqn.train_step().unwrap().is_some());
        assert_eq!(dqn.steps(), 1);
    }
}
