//! From-scratch dense neural networks for the Twig reproduction.
//!
//! The paper implements its branching dueling Q-network in TensorFlow; this
//! crate provides the minimal pieces needed to reproduce it natively in
//! Rust, with no external numerics dependencies:
//!
//! - [`Tensor`] — a dense row-major `f32` matrix (rows = batch);
//! - [`Dense`], [`Relu`], [`Dropout`] — layers, composable into an [`Mlp`],
//!   which keeps every parameter in one arena and the accumulate-on-backward
//!   gradients in another of the same layout;
//! - [`Tape`] — the working memory of a forward/backward pair (activations,
//!   masks, product scratch), one per [`Mlp`] or shared through [`Mlp::on`];
//! - [`Adam`] — the optimiser used by the paper (lr 0.0025 in Twig): one
//!   step count and one flat pair of moments over the arenas it is handed;
//! - [`mse_loss`] — the loss, with optional per-sample importance weights
//!   (needed by prioritised experience replay).
//!
//! Gradients *accumulate* across [`Mlp::backward`] calls until
//! [`Mlp::zero_grads`] — this is what lets the multi-agent BDQ in `twig-rl`
//! sum head gradients into a shared trunk and rescale them (1/K per agent,
//! 1/D per branch) exactly as Section III-A prescribes.
//!
//! # Examples
//!
//! Learn XOR with a two-layer MLP:
//!
//! ```
//! use twig_nn::{Adam, Dense, Mlp, Relu, Tensor, mse_loss};
//! use twig_stats::rng::Xoshiro256;
//!
//! let mut rng = Xoshiro256::seed_from_u64(1);
//! let mut net = Mlp::new()
//!     .push(Dense::new(2, 8, &mut rng))
//!     .push(Relu::new())
//!     .push(Dense::new(8, 1, &mut rng));
//! let mut adam = Adam::new(0.05);
//!
//! let x = Tensor::from_rows(&[
//!     vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0],
//! ]).unwrap();
//! let y = Tensor::from_rows(&[vec![0.0], vec![1.0], vec![1.0], vec![0.0]]).unwrap();
//!
//! let mut last = f32::INFINITY;
//! for _ in 0..500 {
//!     let pred = net.forward(&x, true);
//!     let (loss, grad) = mse_loss(&pred, &y, None).unwrap();
//!     net.zero_grads();
//!     net.backward(&grad);
//!     net.apply(&mut adam);
//!     last = loss;
//! }
//! assert!(last < 0.05, "failed to learn XOR: {last}");
//! ```

// `deny`, not `forbid`: the workspace's two `unsafe` sites — the
// CPUID-guarded call into the AVX2 + FMA instantiation of the GEMM band walk
// (`gemm.rs`) and the counting allocator's `GlobalAlloc` impl
// (`count_alloc.rs`) — carry the only `#[allow]`s (`scripts/check.sh` step
// `unsafe-budget` holds the count at two).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod count_alloc;
mod error;
mod gemm;
mod layer;
mod loss;
mod mlp;
mod optim;
mod quant;
mod tape;
mod tensor;

pub use count_alloc::{note_alloc, CountingAlloc};
pub use error::NnError;
pub use layer::{Dense, Dropout, Relu};
pub use loss::mse_loss;
pub use mlp::{IntoMlpLayer, Mlp, MlpLayerToken, Pass};
pub use optim::Adam;
pub use quant::{QuantizedDense, QuantizedMlp};
pub use tape::Tape;
pub use tensor::Tensor;

/// The GEMM instantiation this CPU runs, e.g. `"avx2+fma 4x16"` or `"portable
/// 4x8"`: instruction set and register-tile shape. Both compute the same
/// bits, so this belongs in the header of a *timing* artefact — which it
/// explains — and nowhere in telemetry or a behavioural report, which must
/// not depend on the host.
pub fn kernel() -> &'static str {
    gemm::Kernel::Detected.name()
}
