//! The replay buffer's storage layout is invisible to learning: which slots a
//! step samples, the importance weights, the packed state rows and so every
//! loss, parameter, optimizer moment and priority are the bits they were when
//! a record was a whole `MultiTransition`.
//!
//! `GOLDEN` was printed by this file at the parent of the change that made a
//! record store its state once (commit `68befe7`, records of `2·K·S` floats).
//! Each run observes one transition and takes one gradient step, 2 000 times:
//! nine in ten transitions start where the previous one ended, the rest start
//! afresh, so the tail row, linked records and the orphan table are all read.
//! Rewards span `2^±6` so priorities span decades and the sampled indices show
//! in them. Regenerate only for a change that means to alter what the learner
//! computes.

use twig_rl::{MaBdq, MaBdqConfig};
use twig_stats::rng::{Rng, Xoshiro256};

/// `(agents, buffer_capacity, digest)`: the paper-sized buffer that never
/// wraps, and rings that wrap 6 and 25 times.
const GOLDEN: [(usize, usize, u64); 3] = [
    (1, 1_000_000, 0x43de_15fb_2e06_15cb),
    (2, 300, 0xc137_3c46_dda1_4f8e),
    (24, 77, 0x4b4d_28c3_1368_ad00),
];

fn fold(h: &mut u64, v: u64) {
    *h = (*h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
}

fn digest(agents: usize, buffer_capacity: usize) -> u64 {
    let mut agent = MaBdq::new(MaBdqConfig {
        agents,
        buffer_capacity,
        trunk_hidden: vec![48, 32],
        head_hidden: 24,
        dropout: 0.1,
        batch_size: 16,
        seed: 42,
        ..MaBdqConfig::default()
    })
    .unwrap();
    let (state_dim, branches) = (agent.config().state_dim, agent.config().branches.clone());
    let mut rng = Xoshiro256::seed_from_u64(0xd16e57 ^ (agents * buffer_capacity) as u64);
    let fresh = |rng: &mut Xoshiro256| -> Vec<Vec<f32>> {
        (0..agents)
            .map(|_| {
                (0..state_dim)
                    .map(|_| rng.range_f64(0.0, 1.0) as f32)
                    .collect()
            })
            .collect()
    };
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut states = fresh(&mut rng);
    for _ in 0..2_000 {
        let next_states = fresh(&mut rng);
        let actions: Vec<Vec<usize>> = (0..agents)
            .map(|_| branches.iter().map(|&n| rng.range_usize(0, n)).collect())
            .collect();
        // ±2^e for e in -6..=6, built from bits (no libm in the generator).
        let rewards: Vec<f32> = (0..agents)
            .map(|_| {
                let exponent = 127 - 6 + rng.range_usize(0, 13) as u32;
                f32::from_bits((rng.range_usize(0, 2) as u32) << 31 | exponent << 23)
            })
            .collect();
        agent
            .observe_parts(&states, &actions, &rewards, &next_states)
            .unwrap();
        states = if rng.range_usize(0, 10) < 9 {
            next_states
        } else {
            fresh(&mut rng)
        };
        if let Some(stats) = agent.train_step().unwrap() {
            for v in [stats.loss, stats.mean_abs_td, stats.grad_norm] {
                fold(&mut h, u64::from(v.to_bits()));
            }
        }
    }
    assert!(agent.steps() > 1_900, "the agent was learning");
    let ckpt = agent.save_checkpoint();
    for v in &ckpt.params {
        fold(&mut h, u64::from(v.to_bits()));
    }
    for slot in &ckpt.adam.slots {
        fold(&mut h, slot.steps);
        for v in slot.m.iter().chain(&slot.v) {
            fold(&mut h, u64::from(v.to_bits()));
        }
    }
    for p in &ckpt.priorities {
        fold(&mut h, p.to_bits());
    }
    fold(&mut h, ckpt.per_step);
    fold(&mut h, ckpt.per_max_priority.to_bits());
    h
}

#[test]
fn learning_is_bit_identical_to_whole_transition_records() {
    let got = GOLDEN.map(|(agents, capacity, _)| (agents, capacity, digest(agents, capacity)));
    assert_eq!(got, GOLDEN, "digests computed: {:#018x?}", got.map(|g| g.2));
}
