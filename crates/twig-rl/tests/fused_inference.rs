//! Twin-run proofs for the fused batched inference path.
//!
//! `MaBdq::select_actions_into` routes through the fused path (all shared
//! advantage-head forwards stacked into one register-tiled GEMM per branch);
//! `select_actions_unfused_into` is the per-agent reference loop. These
//! tests run both on clones of the same agent — identical weights, identical
//! RNG streams — and assert the actions and Q-values are bit-identical for
//! K ∈ {1, 3, 8}, with dropout layers present, after training, and with a
//! quarantine-frozen agent in the batch. A frozen agent still produces
//! Q-values at decide time; freezing must not perturb anyone's bits.
//!
//! Also holds the degraded-tier contract: the greedy select the
//! `SafeFallback` shed tier decides with is the first-max argmax of the
//! fused Q-values, deterministic, and draws nothing from the ε stream.

use twig_rl::{MaBdq, MaBdqConfig, MultiTransition, QuarantineConfig};
use twig_stats::rng::{Rng, Xoshiro256};

fn config(agents: usize) -> MaBdqConfig {
    MaBdqConfig {
        agents,
        state_dim: 5,
        branches: vec![4, 3, 2],
        trunk_hidden: vec![24, 16],
        head_hidden: 16,
        // Dropout layers present so the twin run also proves the batched
        // path leaves their RNG streams untouched (eval mode is identity).
        dropout: 0.25,
        lr: 0.01,
        gamma: 0.5,
        batch_size: 8,
        target_update_every: 10,
        buffer_capacity: 1024,
        seed: 1234,
        ..MaBdqConfig::default()
    }
}

fn random_states(rng: &mut Xoshiro256, agents: usize, dim: usize) -> Vec<Vec<f32>> {
    (0..agents)
        .map(|_| (0..dim).map(|_| rng.range_f32(-1.0, 1.0)).collect())
        .collect()
}

fn train_some(agent: &mut MaBdq, rng: &mut Xoshiro256, steps: usize) {
    let cfg = agent.config().clone();
    for i in 0..(cfg.batch_size.max(steps)) {
        let t = MultiTransition {
            states: random_states(rng, cfg.agents, cfg.state_dim),
            actions: (0..cfg.agents)
                .map(|k| cfg.branches.iter().map(|&n| (i + k) % n).collect())
                .collect(),
            rewards: (0..cfg.agents).map(|k| (i + k) as f32 * 0.1).collect(),
            next_states: random_states(rng, cfg.agents, cfg.state_dim),
        };
        agent.observe(t).unwrap();
    }
    for _ in 0..steps {
        agent.train_step().unwrap().expect("batch available");
    }
}

/// Runs `rounds` of fused-vs-unfused selection and Q evaluation on two
/// clones of `agent` and asserts bit-identity throughout.
fn assert_twin_runs_identical(agent: &MaBdq, rounds: usize, seed: u64) {
    let mut fused = agent.clone();
    let mut unfused = agent.clone();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let agents = agent.config().agents;
    let dim = agent.config().state_dim;
    let mut a_f: Vec<Vec<usize>> = Vec::new();
    let mut a_u: Vec<Vec<usize>> = Vec::new();
    let mut q_f: Vec<Vec<Vec<f32>>> = Vec::new();
    let mut q_u: Vec<Vec<Vec<f32>>> = Vec::new();
    for round in 0..rounds {
        let states = random_states(&mut rng, agents, dim);
        // Mix of pure-greedy and exploring epsilons; both clones draw the
        // same RNG stream, so the ε branches must coincide too.
        let epsilon = match round % 3 {
            0 => 0.0,
            1 => 0.3,
            _ => 1.0,
        };
        fused
            .select_actions_into(&states, epsilon, &mut a_f)
            .unwrap();
        unfused
            .select_actions_unfused_into(&states, epsilon, &mut a_u)
            .unwrap();
        assert_eq!(a_f, a_u, "round {round}: actions diverged");
        fused.q_values_into(&states, &mut q_f).unwrap();
        unfused.q_values_unfused_into(&states, &mut q_u).unwrap();
        assert_eq!(q_f.len(), q_u.len());
        for (k, (bf, bu)) in q_f.iter().zip(&q_u).enumerate() {
            for (d, (rf, ru)) in bf.iter().zip(bu).enumerate() {
                assert_eq!(rf.len(), ru.len());
                for (i, (f, u)) in rf.iter().zip(ru).enumerate() {
                    assert_eq!(
                        f.to_bits(),
                        u.to_bits(),
                        "round {round}: q[{k}][{d}][{i}] {f} vs {u}"
                    );
                }
            }
        }
    }
}

#[test]
fn fused_select_bit_identical_to_per_agent_loop() {
    for agents in [1, 3, 8] {
        // Fresh (He-initialised) weights.
        let agent = MaBdq::new(config(agents)).unwrap();
        assert_twin_runs_identical(&agent, 12, 7 + agents as u64);

        // And after training, when weights are no longer symmetric and the
        // dueling means are non-trivial.
        let mut trained = MaBdq::new(config(agents)).unwrap();
        let mut rng = Xoshiro256::seed_from_u64(99);
        train_some(&mut trained, &mut rng, 25);
        assert_twin_runs_identical(&trained, 12, 31 + agents as u64);
    }
}

#[test]
fn frozen_agent_does_not_perturb_the_batch() {
    let mut agent = MaBdq::new(MaBdqConfig {
        quarantine: QuarantineConfig {
            trip_multiple: 4.0,
            warmup_steps: 10,
            probation_steps: 1_000,
            snapshot_every: 5,
            ..QuarantineConfig::default()
        }
        .armed(),
        ..config(3)
    })
    .unwrap();
    let mut rng = Xoshiro256::seed_from_u64(5);
    train_some(&mut agent, &mut rng, 8);

    // Poison agent 1 with an overflow-scale reward: its |TD| blows through
    // the hard quarantine limit and it freezes immediately.
    let poisoned = MultiTransition {
        states: random_states(&mut rng, 3, 5),
        actions: vec![vec![0, 0, 0]; 3],
        rewards: vec![0.1, 1e30, 0.1],
        next_states: random_states(&mut rng, 3, 5),
    };
    agent.observe(poisoned).unwrap();
    for _ in 0..6 {
        agent.train_step().unwrap();
    }
    assert!(
        agent.quarantine_stats().frozen_agents >= 1,
        "poisoned agent never froze: {:?}",
        agent.quarantine_stats()
    );

    // A frozen agent still contributes its state to the joint batch and
    // still gets Q-values; the fused stack must remain bit-identical.
    assert_twin_runs_identical(&agent, 12, 77);
}

/// The first index of the row's maximum.
fn first_argmax(row: &[f32]) -> usize {
    (0..row.len()).fold(0, |best, i| if row[i] > row[best] { i } else { best })
}

#[test]
fn greedy_selection_is_the_fused_argmax_and_rng_free() {
    let mut agent = MaBdq::new(config(3)).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(23);
    train_some(&mut agent, &mut rng, 10);
    let branches = agent.config().branches.clone();
    let mut greedy: Vec<Vec<usize>> = Vec::new();
    let mut again: Vec<Vec<usize>> = Vec::new();
    let mut q: Vec<Vec<Vec<f32>>> = Vec::new();
    for round in 0..8 {
        let states = random_states(&mut rng, 3, 5);
        // Deterministic, and in range: each action is the first maximum of
        // the row `q_values_into` returns for the same state.
        agent
            .select_actions_greedy_into(&states, &mut greedy)
            .unwrap();
        agent
            .select_actions_greedy_into(&states, &mut again)
            .unwrap();
        assert_eq!(greedy, again, "round {round}");
        agent.q_values_into(&states, &mut q).unwrap();
        assert_eq!(greedy.len(), 3);
        for (k, (chosen, rows)) in greedy.iter().zip(&q).enumerate() {
            assert_eq!(chosen.len(), branches.len());
            for (d, ((&a, row), &n)) in chosen.iter().zip(rows).zip(&branches).enumerate() {
                assert!(a < n, "round {round}: agent {k} branch {d}");
                assert_eq!(a, first_argmax(row), "round {round}: agent {k} branch {d}");
            }
        }
    }

    // RNG-free: a clone that never runs the greedy select draws the exact
    // same ε stream afterwards — shed epochs cannot perturb exploration.
    let states = random_states(&mut rng, 3, 5);
    let mut twin = agent.clone();
    for _ in 0..5 {
        agent
            .select_actions_greedy_into(&states, &mut greedy)
            .unwrap();
    }
    let mut out_a: Vec<Vec<usize>> = Vec::new();
    let mut out_b: Vec<Vec<usize>> = Vec::new();
    for _ in 0..6 {
        agent.select_actions_into(&states, 0.7, &mut out_a).unwrap();
        twin.select_actions_into(&states, 0.7, &mut out_b).unwrap();
        assert_eq!(out_a, out_b);
    }
}
