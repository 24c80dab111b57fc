//! Proof that the learner's hot path is allocation-free in steady state.
//!
//! This binary installs the counting allocator from `twig-nn` as its global
//! allocator, warms the agent up (first calls size every scratch buffer),
//! then asserts that further `train_step` / `train_step_budgeted` /
//! `select_actions_into` / `q_values_into` calls perform ZERO heap
//! allocations. This is the regression gate for the scratch-buffer work: any
//! accidental `clone()`, `Vec::new` or tensor materialisation on the hot
//! path fails loudly here long before it shows up in a profile. It also
//! holds the replay buffer to its footprint: `observe` allocates only when
//! one of the buffer's vectors doubles, and a learner configured for 10⁶
//! transitions costs what it holds, not what it could hold. And it holds the
//! learner to its own account of itself: `learner_bytes() + replay_bytes()`
//! is what the allocator says is live, and a network nobody trains holds
//! weights only. With two CPUs the `K > 1` learners train with a helper
//! thread, which must never allocate: the learner's thread sizes its job.
//!
//! Kept as its own integration test so the `#[global_allocator]` does not
//! leak into other test binaries, and run single-threaded by construction
//! (one `#[test]`), so no concurrent test pollutes the counter — and it counts
//! only its own thread, so neither does libtest's main thread.

use twig_nn::count_alloc;
use twig_rl::{BudgetedProgress, MaBdq, MaBdqConfig, MultiTransition};

#[global_allocator]
static ALLOC: twig_nn::CountingAlloc = twig_nn::CountingAlloc;

fn config(agents: usize) -> MaBdqConfig {
    MaBdqConfig {
        agents,
        state_dim: 4,
        branches: vec![5, 3],
        trunk_hidden: vec![32, 24],
        head_hidden: 16,
        dropout: 0.1,
        batch_size: 16,
        // Small enough that the measured window crosses a target sync,
        // proving the sync path is also allocation-free.
        target_update_every: 3,
        buffer_capacity: 1024,
        seed: 7,
        ..MaBdqConfig::default()
    }
}

fn transition(agents: usize, step: usize) -> MultiTransition {
    let f = step as f32 * 0.01;
    MultiTransition {
        states: vec![vec![f, -f, 0.5, 1.0 - f]; agents],
        actions: vec![vec![step % 5, step % 3]; agents],
        rewards: (0..agents).map(|k| f.sin() * (1.0 - k as f32)).collect(),
        next_states: vec![vec![f + 0.01, -f, 0.5, 0.99 - f]; agents],
    }
}

/// The probe state and the reusable output buffers of the decide paths.
struct Decides {
    states: Vec<Vec<f32>>,
    actions: Vec<Vec<usize>>,
    actions_unfused: Vec<Vec<usize>>,
    actions_greedy: Vec<Vec<usize>>,
    q_out: Vec<Vec<Vec<f32>>>,
}

/// One call into each decide path: fused, per-agent reference, greedy, and
/// the Q-value export.
fn decide_all(agent: &mut MaBdq, d: &mut Decides) {
    agent
        .select_actions_into(&d.states, 0.5, &mut d.actions)
        .unwrap();
    agent
        .select_actions_unfused_into(&d.states, 0.5, &mut d.actions_unfused)
        .unwrap();
    agent
        .select_actions_greedy_into(&d.states, &mut d.actions_greedy)
        .unwrap();
    agent.q_values_into(&d.states, &mut d.q_out).unwrap();
}

/// One learn + decide epoch through each entry point of the gradient step:
/// the one-call `train_step`, then `train_step_budgeted` one agent at a
/// time with every decide path running between the chunks.
fn epoch(agent: &mut MaBdq, out: &mut Decides) {
    agent.train_step().unwrap().expect("batch available");
    decide_all(agent, out);
    loop {
        match agent.train_step_budgeted().unwrap() {
            BudgetedProgress::InProgress { .. } => decide_all(agent, out),
            BudgetedProgress::Done(_) => break,
            BudgetedProgress::NotReady => panic!("batch available"),
        }
    }
}

#[test]
fn hot_path_is_allocation_free_in_steady_state() {
    count_alloc::count_this_thread_only();
    assert!(
        count_alloc::counter_armed(),
        "counting allocator not installed"
    );
    // Two agents share the advantage heads' trunk-column prefix; one agent
    // has nothing to share and takes the unsplit forwards. Both are hot
    // paths (Twig-C and Twig-S).
    for agents in [2, 1] {
        let mut agent = MaBdq::new(config(agents)).unwrap();
        for i in 0..64 {
            agent.observe(transition(agents, i)).unwrap();
        }

        // Warm-up: sizes every scratch buffer (NN scratch, PER batch, Adam
        // moment vectors, reusable action/Q output buffers).
        let mut out = Decides {
            states: vec![vec![0.1, 0.2, 0.3, 0.4]; agents],
            actions: Vec::new(),
            actions_unfused: Vec::new(),
            actions_greedy: Vec::new(),
            q_out: Vec::new(),
        };
        for _ in 0..3 {
            epoch(&mut agent, &mut out);
        }

        // Steady state: ten epochs of learn + decide, zero allocations. The
        // window covers several target-network syncs (every 3 steps) plus
        // the fused, per-agent reference, and greedy decision paths, both
        // after a step and between the chunks of a budgeted one.
        let start = count_alloc::allocation_count();
        for _ in 0..10 {
            epoch(&mut agent, &mut out);
        }
        let delta = count_alloc::allocations_since(start);
        assert_eq!(
            delta, 0,
            "K = {agents}: hot path allocated {delta} times across 10 steady-state epochs"
        );

        observe_allocates_only_to_double(&mut agent, agents);
        prologues_ahead_allocate_nothing(&mut agent, agents);

        // Sanity: the agent is still actually learning (steps advanced) and
        // the outputs are live.
        assert!(agent.steps() >= 26);
        assert_eq!(out.actions.len(), agents);
        assert_eq!(out.actions_greedy.len(), agents);
        assert_eq!(out.q_out.len(), agents);
    }
    footprint_follows_contents(true);
    footprint_follows_contents(false);
    target_network_holds_weights_only();
    for agents in [1, 2, 24] {
        learner_bytes_account_for_the_live_heap(agents);
    }
    // With two CPUs the K = 2 and K = 24 learners above trained with a helper
    // thread. Its job is sized on the learner's thread, so from its first
    // post on (from the start of its loop, in fact) it allocates nothing,
    // and glibc never gives it a malloc arena of its own.
    assert_eq!(count_alloc::helper_allocation_count(), 0);
}

/// `agent` holds 64 transitions of a 1 024-slot buffer, none of which starts
/// where the one before it ended (see `transition`), so every record but the
/// newest keeps its next state in the orphan table. Storing the other 960
/// allocates when the record vectors (features, actions, links) and the
/// priority tree double — at 64, 128, 256 and 512 transitions, four
/// reallocations each — when the orphan table, one row behind them, doubles,
/// and at no other time. Once the ring is full every observe frees the
/// overwritten record's orphan row and hands it to the record before: the
/// first such observe allocates the free list's one block, and from then on
/// an orphan is freed and re-used without allocating. Neither entry point
/// keeps a block of the caller's: a transition moved into `observe` is
/// copied and dropped.
fn observe_allocates_only_to_double(agent: &mut MaBdq, agents: usize) {
    assert_eq!(agent.buffer_len(), 64);
    assert_eq!(agent.replay_unlinked(), 63);
    let owned: Vec<MultiTransition> = (64..1_200).map(|i| transition(agents, i)).collect();
    let mut grown = 0;
    for (i, t) in owned.into_iter().enumerate() {
        let len = agent.buffer_len();
        let start = count_alloc::allocation_count();
        if i % 2 == 0 {
            agent
                .observe_parts(&t.states, &t.actions, &t.rewards, &t.next_states)
                .unwrap();
        } else {
            agent.observe(t).unwrap();
        }
        let delta = count_alloc::allocations_since(start);
        let want = match 64 + i {
            64 | 128 | 256 | 512 => 4,
            65 | 129 | 257 | 513 => 1,
            1_024 => 1,
            _ => 0,
        };
        assert_eq!(delta, want, "K = {agents}: observe at {len} transitions");
        grown += delta;
    }
    assert_eq!(grown, 21);
    assert_eq!(agent.buffer_len(), 1_024);
    assert_eq!(agent.replay_unlinked(), 1_023);
}

/// With the ring full, a control loop's epoch — decide, start the step's
/// prologue ahead, store the transition, train — allocates nothing, on
/// this thread or the helper's, once warm: once a prologue has recomputed
/// the rows of a sampled newest transition, which sizes the row patch. With
/// one agent or one CPU nothing runs ahead and the epoch is the plain one.
fn prologues_ahead_allocate_nothing(agent: &mut MaBdq, agents: usize) {
    let ahead = agents > 1 && twig_stats::helper::two_cpus();
    let mut actions = Vec::new();
    // Built up front: the caller's own buffers are not the learner's.
    let transitions: Vec<MultiTransition> = (2_000..4_100).map(|i| transition(agents, i)).collect();
    let mut epoch = |agent: &mut MaBdq, i: usize| {
        let t = &transitions[i - 2_000];
        agent
            .select_actions_into(&t.states, 0.5, &mut actions)
            .unwrap();
        agent.prepare_step(&t.states, &actions);
        agent
            .observe_parts(&t.states, &actions, &t.rewards, &t.next_states)
            .unwrap();
        agent.train_step().unwrap().expect("batch available");
    };
    let mut i = 2_000;
    while ahead && agent.learner_stats().rows_recomputed == 0 {
        epoch(agent, i);
        i += 1;
        assert!(
            i < 4_000,
            "K = {agents}: no step sampled its newest transition"
        );
    }
    for _ in 0..3 {
        epoch(agent, i);
        i += 1;
    }
    let before = agent.learner_stats();
    let start = count_alloc::allocation_count();
    for _ in 0..20 {
        epoch(agent, i);
        i += 1;
    }
    let delta = count_alloc::allocations_since(start);
    assert_eq!(
        delta, 0,
        "K = {agents}: 20 epochs with prologues ahead allocated {delta} times"
    );
    let ran_ahead = agent.learner_stats().prologues_ahead - before.prologues_ahead;
    assert_eq!(ran_ahead, if ahead { 20 } else { 0 }, "K = {agents}");
}

/// The default configuration reserves room for 10⁶ transitions; after
/// 1 000 the learner holds a thousand records and a 1 024-leaf tree, and a
/// clone copies that much. (The tree alone used to be 2²¹ nodes, 16 MiB,
/// allocated up front and copied by every clone.) A record is 56 bytes when
/// each transition starts where the one before it ended, as a control loop's
/// do; when none does — the worst case — every record also holds a 44-byte
/// row of the orphan table, which is what the 96-byte record that stored both
/// states cost, plus the link.
fn footprint_follows_contents(chained: bool) {
    const MIB: usize = 1 << 20;
    const TAIL_ROW: usize = 11 * 4;
    let mut agent = MaBdq::new(MaBdqConfig::default()).unwrap();
    assert_eq!(agent.config().buffer_capacity, 1_000_000);
    let before = count_alloc::requested_bytes();
    for i in 0..1_000 {
        let (f, next) = (i as f32 * 1e-3, (i + 1) as f32 * 1e-3);
        let start = if chained { f } else { 2.0 - f };
        agent
            .observe_parts(
                &[vec![start; 11]],
                &[vec![i % 18, i % 9]],
                &[f],
                &[vec![next; 11]],
            )
            .unwrap();
    }
    // Records, orphan rows and 16-byte tree leaves at their doubled
    // capacities, and the newest record's next state.
    let (record, unlinked) = if chained { (56, 0) } else { (56 + 44, 999) };
    assert_eq!(twig_rl::memory::replay_record_bytes(1, 11, 2), 56);
    assert_eq!(agent.replay_unlinked(), unlinked);
    assert_eq!(agent.replay_bytes(), 1_024 * (record + 16) + TAIL_ROW);
    assert!(agent.replay_bytes() <= 1_024 * (96 + 4 + 16) + TAIL_ROW);
    let observed = count_alloc::requested_bytes() - before;
    assert!(observed <= MIB, "1 000 observes requested {observed} bytes");

    let before = count_alloc::requested_bytes();
    let twin = agent.clone();
    let cloned = count_alloc::requested_bytes() - before;
    assert_eq!(twin.buffer_len(), 1_000);
    assert!(twin.replay_bytes() <= agent.replay_bytes());
    // A clone copies parameters and contents, each block at its length: no
    // gradients or working memory on a learner that has not trained yet.
    let held = agent.learner_bytes() + agent.replay_bytes();
    assert!(agent.learner_bytes() <= agent.memory_bytes() * 11 / 10);
    assert!(cloned <= held, "clone requested {cloned} of {held} bytes");
}

/// Building a learner allocates two networks' weights and nothing
/// parameter-sized besides: gradients come with the first train step (and
/// only for the online network), moments with the first optimiser step,
/// working memory with the first pass that needs it.
fn target_network_holds_weights_only() {
    let config = MaBdqConfig {
        agents: 24,
        ..MaBdqConfig::default()
    };
    let before = count_alloc::requested_bytes();
    let agent = MaBdq::new(config).unwrap();
    let requested = count_alloc::requested_bytes() - before;
    assert_eq!(agent.memory_bytes(), 2 * 128_995 * 4);
    assert!(
        requested <= agent.memory_bytes() * 11 / 10,
        "MaBdq::new requested {requested} bytes for {} of weights",
        agent.memory_bytes()
    );
}

/// After 200 observe + train steps (and a decide per step, ε-greedy and
/// greedy), what the learner says it holds is what the allocator says
/// is live, within 3 % (to the byte when this was written). At K = 24 that is five parameter-sized arrays
/// (weights twice, gradients, two moments) plus working memory that no
/// longer grows with the number of heads, and holds no `K·B`-row buffer.
fn learner_bytes_account_for_the_live_heap(agents: usize) {
    let config = MaBdqConfig {
        agents,
        target_update_every: 50,
        ..MaBdqConfig::default()
    };
    let transitions: Vec<MultiTransition> = (0..264)
        .map(|i| {
            let f = i as f32 * 1e-3;
            MultiTransition {
                states: vec![vec![f; 11]; agents],
                actions: vec![vec![i % 18, i % 9]; agents],
                rewards: vec![f.cos(); agents],
                next_states: vec![vec![f + 1e-3; 11]; agents],
            }
        })
        .collect();
    let probe = vec![vec![0.25; 11]; agents];
    let mut actions = Vec::new();
    // Everything above stays live across both readings; everything below is
    // the learner's, or freed by the time of the second.
    let before = count_alloc::live_bytes();
    let mut agent = MaBdq::new(config).unwrap();
    for (i, t) in transitions.iter().enumerate() {
        if i >= 63 {
            // The prologue run ahead's buffers are the learner's too.
            agent.prepare_step(&t.states, &t.actions);
        }
        agent
            .observe_parts(&t.states, &t.actions, &t.rewards, &t.next_states)
            .unwrap();
        if i >= 63 {
            agent.train_step().unwrap().expect("batch available");
            agent
                .select_actions_into(&probe, 0.1, &mut actions)
                .unwrap();
            agent
                .select_actions_greedy_into(&probe, &mut actions)
                .unwrap();
        }
    }
    assert_eq!(agent.steps(), 201);
    let mut live = count_alloc::live_bytes().wrapping_sub(before);
    live -= actions.capacity() * std::mem::size_of::<Vec<usize>>();
    live -= actions.iter().map(|a| a.capacity() * 8).sum::<usize>();
    let counted = agent.learner_bytes() + agent.replay_bytes();
    assert!(
        counted <= live && live - counted <= live * 3 / 100,
        "K = {agents}: learner {} + replay {} bytes counted, {live} live",
        agent.learner_bytes(),
        agent.replay_bytes()
    );
    if agents == 24 {
        // 3 811 524 when the targets began to be evaluated one agent at a
        // time (4 835 652 before, with K·B-row evaluation buffers); with two
        // CPUs it includes the helper thread's share of the train step's
        // working memory (`LearnerMemory::helper`, ≈ 300 KB).
        let learner = agent.learner_bytes();
        assert!(
            learner <= 3_900_000,
            "learner holds {learner} bytes: {:?}",
            agent.learner_memory()
        );
        assert!(learner >= 5 * agent.memory_bytes() / 2);
    }
}
