use crate::per::{PerBatch, Priorities};
use crate::RlError;
use twig_nn::{Adam, Dense, Dropout, Mlp, Relu, Tensor};
use twig_stats::rng::{Rng, Xoshiro256};

/// Configuration of a vanilla [`Dqn`].
#[derive(Debug, Clone, PartialEq)]
pub struct DqnConfig {
    /// State dimensionality.
    pub state_dim: usize,
    /// Number of (joint) discrete actions.
    pub actions: usize,
    /// Hidden-layer widths.
    pub hidden: Vec<usize>,
    /// Dropout probability.
    pub dropout: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// Minibatch size.
    pub batch_size: usize,
    /// Steps between target-network synchronisations.
    pub target_update_every: u64,
    /// Replay capacity.
    pub buffer_capacity: usize,
    /// PER priority exponent α (0 = uniform).
    pub per_alpha: f64,
    /// PER importance exponent β at step 0.
    pub per_beta0: f64,
    /// Steps over which β anneals to 1.
    pub per_beta_steps: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DqnConfig {
    fn default() -> Self {
        DqnConfig {
            state_dim: 11,
            actions: 162,
            hidden: vec![96, 64],
            dropout: 0.05,
            lr: 0.0025,
            gamma: 0.99,
            batch_size: 64,
            target_update_every: 150,
            buffer_capacity: 1_000_000,
            per_alpha: 0.6,
            per_beta0: 0.4,
            per_beta_steps: 100_000,
            seed: 0,
        }
    }
}

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
///
/// # Examples
///
/// ```
/// use twig_rl::{Dqn, DqnConfig};
///
/// let mut dqn = Dqn::new(DqnConfig {
///     state_dim: 2,
///     actions: 4,
///     hidden: vec![16],
///     ..DqnConfig::default()
/// }).unwrap();
/// let a = dqn.select_action(&[0.1, 0.9], 0.0).unwrap();
/// assert!(a < 4);
/// ```
#[derive(Debug, Clone)]
pub struct Dqn {
    config: DqnConfig,
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
    /// Builds the online and target networks.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::InvalidConfig`] for an invalid configuration.
    pub fn new(config: DqnConfig) -> Result<Self, RlError> {
        if config.state_dim == 0 || config.actions == 0 || config.batch_size == 0 {
            return Err(RlError::InvalidConfig {
                detail: format!(
                    "state {} actions {} batch {}",
                    config.state_dim, config.actions, config.batch_size
                ),
            });
        }
        if config.hidden.is_empty() || config.hidden.contains(&0) {
            return Err(RlError::InvalidConfig {
                detail: format!("hidden {:?}", config.hidden),
            });
        }
        if !(0.0..1.0).contains(&config.dropout) {
            return Err(RlError::InvalidConfig {
                detail: format!("dropout {}", config.dropout),
            });
        }
        let mut rng = Xoshiro256::seed_from_u64(config.seed);
        let build = |rng: &mut Xoshiro256| {
            let mut net = Mlp::new();
            let mut prev = config.state_dim;
            for (i, &h) in config.hidden.iter().enumerate() {
                net = net
                    .push(Dense::new(prev, h, rng))
                    .push(Relu::new())
                    .push(Dropout::new(
                        config.dropout,
                        config.seed.wrapping_add(i as u64),
                    ));
                prev = h;
            }
            net.push(Dense::new(prev, config.actions, rng))
        };
        let online = build(&mut rng);
        let mut target = build(&mut rng);
        target
            .copy_weights_from(&online)
            .expect("same architecture");
        let adam = Adam::new(config.lr);
        let priorities = Priorities::new(
            config.buffer_capacity,
            config.per_alpha,
            config.per_beta0,
            config.per_beta_steps,
        );
        Ok(Dqn {
            config,
            online,
            target,
            adam,
            transitions: Vec::new(),
            priorities,
            rng,
            steps: 0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &DqnConfig {
        &self.config
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
        if state.len() != self.config.state_dim {
            return Err(RlError::DimensionMismatch {
                detail: format!("state {} != {}", state.len(), self.config.state_dim),
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
            return Ok(self.rng.range_usize(0, self.config.actions));
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
        if action >= self.config.actions {
            return Err(RlError::DimensionMismatch {
                detail: format!("action {action} out of {}", self.config.actions),
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
        if self.transitions.len() < self.config.batch_size {
            return Ok(None);
        }
        let batch_size = self.config.batch_size;
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

        let mut grad = Tensor::zeros(batch_size, self.config.actions);
        let mut loss = 0.0f32;
        let mut abs_td = Vec::with_capacity(batch_size);
        for (b, t) in transitions.iter().enumerate() {
            let a_star = argmax(q_next_online.row(b));
            let y = t.reward + self.config.gamma * q_next_target[(b, a_star)];
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
        if self.steps.is_multiple_of(self.config.target_update_every) {
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

    fn tiny() -> DqnConfig {
        DqnConfig {
            state_dim: 2,
            actions: 4,
            hidden: vec![24],
            dropout: 0.0,
            lr: 0.01,
            gamma: 0.0,
            batch_size: 16,
            buffer_capacity: 2048,
            seed: 5,
            ..DqnConfig::default()
        }
    }

    #[test]
    fn config_validation() {
        assert!(Dqn::new(DqnConfig {
            state_dim: 0,
            ..tiny()
        })
        .is_err());
        assert!(Dqn::new(DqnConfig {
            actions: 0,
            ..tiny()
        })
        .is_err());
        assert!(Dqn::new(DqnConfig {
            hidden: vec![],
            ..tiny()
        })
        .is_err());
        assert!(Dqn::new(DqnConfig {
            dropout: 1.0,
            ..tiny()
        })
        .is_err());
        assert!(Dqn::new(DqnConfig {
            batch_size: 0,
            ..tiny()
        })
        .is_err());
    }

    #[test]
    fn rejects_bad_shapes() {
        let mut dqn = Dqn::new(tiny()).unwrap();
        assert!(dqn.select_action(&[0.0], 0.0).is_err());
        assert!(dqn.observe(&[0.0, 0.0], 9, 0.0, &[0.0, 0.0]).is_err());
        assert!(dqn.observe(&[0.0], 0, 0.0, &[0.0, 0.0]).is_err());
    }

    #[test]
    fn learns_contextual_bandit() {
        let mut dqn = Dqn::new(tiny()).unwrap();
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
        let dqn = Dqn::new(DqnConfig {
            state_dim: 11,
            actions: 18 * 9,
            hidden: vec![96, 64],
            ..DqnConfig::default()
        })
        .unwrap();
        let bdq = crate::MaBdq::new(crate::MaBdqConfig::default()).unwrap();
        assert!(dqn.param_count() > 0);
        // The BDQ's output layers scale with 18 + 9, the DQN's with 162.
        let dqn_out_params = 64 * 162 + 162;
        let bdq_out_params = 48 * (18 + 9) + 27;
        assert!(dqn_out_params > 5 * bdq_out_params);
        let _ = bdq.param_count();
    }

    #[test]
    fn train_none_until_batch() {
        let mut dqn = Dqn::new(tiny()).unwrap();
        assert_eq!(dqn.train_step().unwrap(), None);
        for _ in 0..16 {
            dqn.observe(&[0.0, 0.0], 0, 1.0, &[0.0, 0.0]).unwrap();
        }
        assert!(dqn.train_step().unwrap().is_some());
        assert_eq!(dqn.steps(), 1);
    }
}
