//! Proof that an `Mlp`'s scratch forward/backward passes are allocation-free
//! in steady state — the activation ping-pong buffers, the gradient
//! scratches and the transposed-weight pack panel the input-gradient GEMM
//! reuses (`Tensor::matmul_t_into`) are all sized by the first round. The
//! shared-prefix forwards and the split backward hold to the same, and so do
//! networks of different widths taking turns on one shared `Tape`.
//!
//! Own integration test so the `#[global_allocator]` stays in this binary,
//! a single `#[test]` so no concurrent test pollutes the counter, counting only
//! its own thread so libtest's main thread does not either.

use twig_nn::{count_alloc, Adam, CountingAlloc, Dense, Dropout, Mlp, Relu, Tape, Tensor};
use twig_stats::rng::{Rng, Xoshiro256};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn scratch_forward_backward_rounds_allocate_nothing_after_warm_up() {
    count_alloc::count_this_thread_only();
    assert!(count_alloc::counter_armed());
    let mut rng = Xoshiro256::seed_from_u64(5);
    // Widths off every tile boundary, so the remainder tiles and a partial
    // pack panel run too.
    let mut net = Mlp::new()
        .push(Dense::new(11, 37, &mut rng))
        .push(Relu::new())
        .push(Dropout::new(0.1, 3))
        .push(Dense::new(37, 21, &mut rng))
        .push(Relu::new())
        .push(Dense::new(21, 5, &mut rng));
    let mut fill = |rows, cols| {
        let data = (0..rows * cols).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        Tensor::from_vec(rows, cols, data).expect("shape")
    };
    let (input, grad) = (fill(19, 11), fill(19, 5));

    for _ in 0..3 {
        net.forward_scratch(&input, true);
        net.backward_scratch(&grad);
    }
    let before = count_alloc::allocation_count();
    for _ in 0..100 {
        net.zero_grads();
        std::hint::black_box(net.forward_scratch(&input, true));
        std::hint::black_box(net.backward_scratch(&grad));
    }
    assert_eq!(count_alloc::allocations_since(before), 0);

    // The same network fed `[shared | own]`: prefix once, then the eval
    // forward over three row groups, the train forward, the backward that
    // stops at the first layer's output and the shared columns' part of it.
    let (shared, own, own3) = (fill(19, 7), fill(19, 4), fill(57, 4));
    let (mut prefix, mut first_grad) = (Tensor::zeros(0, 0), Tensor::zeros(0, 0));
    let mut tape = Tape::new();
    let mut round = |net: &mut Mlp| {
        net.zero_grads();
        net.prefix_into(&shared, &mut prefix);
        let pass = net.on(&mut tape);
        std::hint::black_box(pass.forward_batch_from_prefix_scratch(&prefix, &own3));
        let pass = net.on(&mut tape);
        std::hint::black_box(pass.forward_from_prefix_scratch(&prefix, &own, true));
        first_grad.copy_from(net.on(&mut tape).backward_from_prefix_scratch(&grad));
        let pass = net.on(&mut tape);
        std::hint::black_box(pass.backward_prefix_scratch(&shared, &first_grad));
    };
    for _ in 0..3 {
        round(&mut net);
    }
    let before = count_alloc::allocation_count();
    for _ in 0..100 {
        round(&mut net);
    }
    assert_eq!(count_alloc::allocations_since(before), 0);
    networks_taking_turns_on_one_tape_allocate_nothing_after_the_first_round();
}

/// Two networks of one architecture and two whose last layers differ (18 and
/// 9 outputs: the advantage heads' case) run forward + backward in turn on
/// one shared tape, dropout on. The first round sizes every buffer of the
/// tape to the largest shape it serves; the next hundred allocate nothing.
/// Throughout, each network computes what its twin computes on a tape of its
/// own, bit for bit: outputs, input gradients, the accumulated gradients'
/// norm and the parameters an optimiser step makes of them.
fn networks_taking_turns_on_one_tape_allocate_nothing_after_the_first_round() {
    let mut rng = Xoshiro256::seed_from_u64(9);
    let mut head = |out: usize, seed: u64| {
        Mlp::new()
            .push(Dense::new(75, 48, &mut rng))
            .push(Relu::new())
            .push(Dropout::new(0.5, seed))
            .push(Dense::new(48, out, &mut rng))
    };
    let mut shared = [head(1, 1), head(1, 2), head(18, 3), head(9, 4)];
    let mut own = shared.clone();
    let input = {
        let data = (0..64 * 75).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        Tensor::from_vec(64, 75, data).expect("shape")
    };
    let grads: Vec<Tensor> = [1, 1, 18, 9]
        .iter()
        .map(|&cols| {
            let data = (0..64 * cols).map(|_| rng.range_f32(-1.0, 1.0)).collect();
            Tensor::from_vec(64, cols, data).expect("shape")
        })
        .collect();
    // Compared in place: the comparison must not allocate either.
    let same = |a: &Tensor, b: &Tensor| {
        let pairs = a.as_slice().iter().zip(b.as_slice());
        (a.rows(), a.cols()) == (b.rows(), b.cols())
            && pairs.fold(true, |same, (x, y)| same & (x.to_bits() == y.to_bits()))
    };
    let mut tape = Tape::new();
    let mut own_tapes = [Tape::new(), Tape::new(), Tape::new(), Tape::new()];
    let mut round = || {
        let twins = own.iter_mut().zip(&mut own_tapes);
        for ((net, (twin, twin_tape)), grad) in shared.iter_mut().zip(twins).zip(&grads) {
            let out = net.on(&mut tape).forward_scratch(&input, true);
            assert!(same(out, twin.on(twin_tape).forward_scratch(&input, true)));
            let dx = net.on(&mut tape).backward_cols_scratch(grad, 64);
            assert!(same(dx, twin.on(twin_tape).backward_cols_scratch(grad, 64)));
        }
    };
    round();
    let before = count_alloc::allocation_count();
    for _ in 0..100 {
        round();
    }
    assert_eq!(count_alloc::allocations_since(before), 0);
    for (net, twin) in shared.iter_mut().zip(&mut own) {
        assert!(net.grad_sq_norm() > 0.0);
        assert_eq!(net.grad_sq_norm().to_bits(), twin.grad_sq_norm().to_bits());
        net.apply(&mut Adam::new(0.01));
        twin.apply(&mut Adam::new(0.01));
        let (a, b) = (net.parameters(), twin.parameters());
        assert!(same(&Tensor::from_row(a), &Tensor::from_row(b)));
    }
}
