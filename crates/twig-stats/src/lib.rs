//! Statistics substrate for the Twig reproduction.
//!
//! The Twig paper leans on a handful of classical statistical tools: Pearson
//! correlation and principal-component analysis to select performance
//! counters (Section III-B1), polynomial regression with random grid search
//! and 5-fold cross-validation to fit the per-service power model (Eq. 2),
//! percentile estimation for tail latency, and histogram / violin summaries
//! for the evaluation figures. The paper used scikit-learn; this crate
//! reimplements the required routines from scratch in Rust.
//!
//! # Examples
//!
//! ```
//! use twig_stats::{percentile, pearson};
//!
//! let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
//! let ys = [2.0, 4.0, 6.0, 8.0, 10.0];
//! assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
//! assert_eq!(percentile(&mut [3.0, 1.0, 2.0], 50.0).unwrap(), 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corr;
mod describe;
mod error;
pub mod fields;
pub mod helper;
mod histogram;
mod matrix;
mod model_select;
mod pca;
mod percentile;
mod regress;
pub mod rng;
mod scale;

pub use corr::pearson;
pub use describe::{mean, stddev, variance, Summary};
pub use error::StatsError;
pub use histogram::{Histogram, ViolinSummary};
pub use matrix::Matrix;
pub use model_select::{k_fold_indices, random_grid_search, CrossValidation, GridPoint};
pub use pca::{Pca, PcaModel};
pub use percentile::{percentile, percentile_sorted};
pub use regress::{polynomial_features, LinearModel, RegressionFit};
pub use scale::{max_norm_scale, MaxNormScaler};
