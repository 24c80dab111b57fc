//! Bit-identity proof for the resumable budgeted training path.
//!
//! The deadline scheduler splits `MaBdq::train_step` into micro-batches via
//! `train_step_budgeted`, interleaving decisions between chunks. Both entry
//! points run the same prologue, head passes and epilogue, so what these
//! tests pin is the one thing that could still tell them apart: nothing that
//! runs between chunks may touch what the step reads later. A budgeted step
//! driven to completion produces **bit-identical** weights, optimizer
//! moments, replay priorities and RNG streams to one unbudgeted `train_step`
//! — with every public decide path running between chunks — and any
//! operation that would invalidate the deferred state (a full step, a
//! checkpoint restore, a transfer reset) aborts it cleanly.

use twig_rl::{encode_checkpoint, BudgetedProgress, MaBdq, MaBdqConfig, MultiTransition};
use twig_stats::rng::{Rng, Xoshiro256};

const AGENTS: usize = 3;
const STATE_DIM: usize = 3;

/// Dropout deliberately non-zero: the epilogue's trunk backward reads the
/// masks and activations the prologue's train-mode forward cached, so a
/// decide path that drew from a dropout stream or wrote an activation cache
/// between chunks would show up as diverged weights.
fn config() -> MaBdqConfig {
    MaBdqConfig {
        agents: AGENTS,
        state_dim: STATE_DIM,
        branches: vec![4, 3],
        trunk_hidden: vec![16, 12],
        head_hidden: 8,
        dropout: 0.25,
        lr: 0.01,
        gamma: 0.9,
        batch_size: 8,
        target_update_every: 7,
        buffer_capacity: 4096,
        seed: 7,
        ..MaBdqConfig::default()
    }
}

fn transition(rng: &mut Xoshiro256) -> MultiTransition {
    MultiTransition {
        states: (0..AGENTS)
            .map(|_| {
                (0..STATE_DIM)
                    .map(|_| rng.range_f64(-1.0, 1.0) as f32)
                    .collect()
            })
            .collect(),
        actions: (0..AGENTS)
            .map(|_| vec![rng.range_usize(0, 4), rng.range_usize(0, 3)])
            .collect(),
        rewards: (0..AGENTS)
            .map(|_| rng.range_f64(-0.5, 0.5) as f32)
            .collect(),
        next_states: (0..AGENTS)
            .map(|_| {
                (0..STATE_DIM)
                    .map(|_| rng.range_f64(-1.0, 1.0) as f32)
                    .collect()
            })
            .collect(),
    }
}

/// Every public decide path, once each. The ε-greedy paths draw from the
/// agent's RNG, so a twin that must stay in lockstep calls this as often.
fn decide_all(agent: &mut MaBdq) {
    let probe = vec![vec![0.1_f32; STATE_DIM]; AGENTS];
    let q = agent.q_values(&probe).unwrap();
    assert!(q.iter().flatten().flatten().all(|v| v.is_finite()));
    let mut actions = Vec::new();
    agent
        .select_actions_into(&probe, 0.5, &mut actions)
        .unwrap();
    agent
        .select_actions_unfused_into(&probe, 0.5, &mut actions)
        .unwrap();
    agent
        .select_actions_greedy_into(&probe, &mut actions)
        .unwrap();
}

/// Drives one budgeted step to completion, running every decide path after
/// each unfinished chunk when `evals_between`.
fn drive_to_done(agent: &mut MaBdq, max_agents: usize, evals_between: bool) -> BudgetedProgress {
    loop {
        match agent.train_step_budgeted(max_agents).unwrap() {
            BudgetedProgress::InProgress { .. } => {
                if evals_between {
                    // Stateless forwards on the decide paths' own tape:
                    // they write nothing the step's tapes hold and advance
                    // no dropout stream.
                    decide_all(agent);
                }
            }
            done => return done,
        }
    }
}

#[test]
fn budgeted_step_is_bit_identical_to_train_step() {
    let mut full = MaBdq::new(config()).unwrap();
    let mut budgeted = MaBdq::new(config()).unwrap();
    let mut rng_a = Xoshiro256::seed_from_u64(9);
    let mut rng_b = Xoshiro256::seed_from_u64(9);
    for _ in 0..16 {
        full.observe(transition(&mut rng_a)).unwrap();
        budgeted.observe(transition(&mut rng_b)).unwrap();
    }
    for step in 0..25 {
        let stats_full = full.train_step().unwrap().expect("buffer warm");
        let done = drive_to_done(&mut budgeted, 1, true);
        let BudgetedProgress::Done(stats_b) = done else {
            panic!("budgeted step never completed: {done:?}");
        };
        // Mirror the ε-greedy RNG draws on the one-call twin: one decide
        // round per unfinished chunk, AGENTS − 1 at one agent per chunk.
        for _ in 1..AGENTS {
            decide_all(&mut full);
        }
        assert_eq!(stats_full, stats_b, "stats diverged at step {step}");
        assert_eq!(
            encode_checkpoint(&full.save_checkpoint()),
            encode_checkpoint(&budgeted.save_checkpoint()),
            "weights/moments/priorities diverged at step {step}"
        );
        // Keep the observation streams aligned between steps (the window
        // crosses a target sync at step 7 and PER β keeps annealing).
        full.observe(transition(&mut rng_a)).unwrap();
        budgeted.observe(transition(&mut rng_b)).unwrap();
    }
    assert_eq!(full.steps(), 25);
    assert_eq!(budgeted.steps(), 25);
}

#[test]
fn wide_step_with_decides_and_observes_between_every_chunk_is_bit_identical() {
    // K = 24 at the default architecture, one agent per chunk. All 24 value
    // heads take turns on one tape and every advantage head on another,
    // while the trunk's tape has to carry the prologue's forward to the
    // epilogue across 23 returns to the caller — who decides (ε-greedy and
    // greedy, both on the decide paths' own working memory) and observes
    // every time. Each round starts both learners from one state:
    // a transition observed mid-step enters the buffer before the step's
    // priority write-back rather than after it, so priorities of *later*
    // rounds legitimately differ, but this step's loss, gradients, weights
    // and optimiser moments may not.
    const K: usize = 24;
    let config = MaBdqConfig {
        agents: K,
        dropout: 0.25,
        target_update_every: 2,
        buffer_capacity: 4096,
        seed: 11,
        ..MaBdqConfig::default()
    };
    let mut rng = Xoshiro256::seed_from_u64(12);
    let mut transition = move || MultiTransition {
        states: (0..K)
            .map(|_| (0..11).map(|_| rng.range_f32(-1.0, 1.0)).collect())
            .collect(),
        actions: (0..K)
            .map(|_| vec![rng.range_usize(0, 18), rng.range_usize(0, 9)])
            .collect(),
        rewards: (0..K).map(|_| rng.range_f32(-0.5, 0.5)).collect(),
        next_states: (0..K)
            .map(|_| (0..11).map(|_| rng.range_f32(-1.0, 1.0)).collect())
            .collect(),
    };
    let mut full = MaBdq::new(config).unwrap();
    for _ in 0..80 {
        full.observe(transition()).unwrap();
    }
    let probe = vec![vec![0.1_f32; 11]; K];
    let mut actions = Vec::new();
    for round in 0..4 {
        let mut budgeted = full.clone();
        let stats_full = full.train_step().unwrap().expect("buffer warm");
        let mut chunks = 0;
        let stats_budgeted = loop {
            match budgeted.train_step_budgeted(1).unwrap() {
                BudgetedProgress::InProgress { .. } => {
                    chunks += 1;
                    budgeted
                        .select_actions_into(&probe, 0.5, &mut actions)
                        .unwrap();
                    budgeted
                        .select_actions_greedy_into(&probe, &mut actions)
                        .unwrap();
                    budgeted.observe(transition()).unwrap();
                }
                BudgetedProgress::Done(stats) => break stats,
                BudgetedProgress::NotReady => panic!("buffer was warm"),
            }
        };
        assert_eq!(chunks, K - 1);
        assert_eq!(stats_full, stats_budgeted, "round {round}");
        let (a, b) = (full.save_checkpoint(), budgeted.save_checkpoint());
        let bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.params), bits(&b.params), "round {round}");
        assert_eq!(a.adam, b.adam, "round {round}");
        full.observe(transition()).unwrap();
    }
    assert_eq!(full.steps(), 4);
}

#[test]
fn one_call_with_large_budget_completes_in_one_go() {
    let mut full = MaBdq::new(config()).unwrap();
    let mut budgeted = MaBdq::new(config()).unwrap();
    let mut rng_a = Xoshiro256::seed_from_u64(3);
    let mut rng_b = Xoshiro256::seed_from_u64(3);
    for _ in 0..12 {
        full.observe(transition(&mut rng_a)).unwrap();
        budgeted.observe(transition(&mut rng_b)).unwrap();
    }
    let stats_full = full.train_step().unwrap().expect("buffer warm");
    match budgeted.train_step_budgeted(usize::MAX).unwrap() {
        BudgetedProgress::Done(stats) => assert_eq!(stats, stats_full),
        other => panic!("expected Done in a single call, got {other:?}"),
    }
    // max_agents == 0 is clamped to 1 — progress is always made.
    budgeted.observe(transition(&mut rng_b)).unwrap();
    match budgeted.train_step_budgeted(0).unwrap() {
        BudgetedProgress::InProgress {
            agents_done,
            agents_total,
        } => {
            assert_eq!((agents_done, agents_total), (1, AGENTS));
        }
        other => panic!("expected InProgress, got {other:?}"),
    }
}

#[test]
fn underfilled_buffer_reports_not_ready() {
    let mut agent = MaBdq::new(config()).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(1);
    for _ in 0..3 {
        agent.observe(transition(&mut rng)).unwrap();
    }
    assert_eq!(
        agent.train_step_budgeted(1).unwrap(),
        BudgetedProgress::NotReady
    );
    assert!(!agent.budgeted_step_in_flight());
}

#[test]
fn full_train_step_aborts_inflight_budgeted_step() {
    let mut agent = MaBdq::new(config()).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(5);
    for _ in 0..12 {
        agent.observe(transition(&mut rng)).unwrap();
    }
    assert!(matches!(
        agent.train_step_budgeted(1).unwrap(),
        BudgetedProgress::InProgress {
            agents_done: 1,
            agents_total: AGENTS
        }
    ));
    assert!(agent.budgeted_step_in_flight());
    // The full step discards the partial gradients and samples afresh.
    let stats = agent.train_step().unwrap().expect("buffer warm");
    assert!(!stats.skipped && stats.grad_norm.is_finite());
    assert!(!agent.budgeted_step_in_flight());
    assert_eq!(agent.steps(), 1);
    // A later budgeted step still drives cleanly to completion.
    match drive_to_done(&mut agent, 2, false) {
        BudgetedProgress::Done(s) => assert!(s.grad_norm.is_finite()),
        other => panic!("expected Done, got {other:?}"),
    }
    assert_eq!(agent.steps(), 2);
}

#[test]
fn checkpoint_restore_aborts_inflight_budgeted_step() {
    let mut agent = MaBdq::new(config()).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(6);
    for _ in 0..12 {
        agent.observe(transition(&mut rng)).unwrap();
    }
    let ckpt = agent.save_checkpoint();
    assert!(matches!(
        agent.train_step_budgeted(1).unwrap(),
        BudgetedProgress::InProgress { .. }
    ));
    agent.load_checkpoint(&ckpt).unwrap();
    assert!(!agent.budgeted_step_in_flight());
    assert_eq!(agent.steps(), 0);
    // transfer_reset likewise.
    assert!(matches!(
        agent.train_step_budgeted(1).unwrap(),
        BudgetedProgress::InProgress { .. }
    ));
    agent.transfer_reset();
    assert!(!agent.budgeted_step_in_flight());
}

#[test]
fn observe_between_chunks_survives_replay_overwrites() {
    // A tiny ring buffer plus pushes between every chunk: sampled slots are
    // overwritten mid-step, so the step must train from its own copies (the
    // actions it sampled, not whatever landed in the slot afterwards) and
    // never panic or index out of range.
    let cfg = MaBdqConfig {
        buffer_capacity: 9,
        ..config()
    };
    let mut agent = MaBdq::new(cfg).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(8);
    for _ in 0..9 {
        agent.observe(transition(&mut rng)).unwrap();
    }
    for _ in 0..10 {
        loop {
            match agent.train_step_budgeted(1).unwrap() {
                BudgetedProgress::InProgress { .. } => {
                    for _ in 0..3 {
                        agent.observe(transition(&mut rng)).unwrap();
                    }
                }
                BudgetedProgress::Done(stats) => {
                    assert!(stats.loss.is_finite() && stats.grad_norm.is_finite());
                    break;
                }
                BudgetedProgress::NotReady => panic!("buffer was warm"),
            }
        }
    }
    assert_eq!(agent.steps(), 10);
}
