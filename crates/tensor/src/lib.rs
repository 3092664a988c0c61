//! `gnn-tensor` — a small dense-matrix autodiff engine for graph neural networks.
//!
//! The Rust deep-learning ecosystem does not currently provide the
//! message-passing layers the paper needs, so this crate supplies the
//! substrate from scratch:
//!
//! * [`matrix::Matrix`] — dense row-major `f32` matrices with the linear
//!   algebra and gather/scatter kernels message passing needs.
//! * [`var::Var`] — reverse-mode automatic differentiation over matrices,
//!   including segment aggregations and the loss functions used by the
//!   prediction tasks.
//! * [`tape`] — the arena tape backing `Var`: one flat op/value/grad store
//!   per thread, reset between training steps so steady-state epochs run
//!   with O(1) allocations.
//! * [`nn`] — linear layers, MLPs and embedding tables.
//! * [`optim`] — Adam and SGD optimisers plus gradient clipping.
//! * [`profile`] — the per-op tape profiler (`HLSGNN_PROFILE=1`): wall time,
//!   invocation counts and analytic FLOPs/bytes per op kind, with a
//!   roofline-style arithmetic-intensity column (`tensor_profile` in the
//!   bench crate prints the table).
//!
//! # Example
//!
//! ```
//! use gnn_tensor::{Matrix, Var};
//! use gnn_tensor::optim::Adam;
//!
//! // Fit y = 2x with a single weight.
//! let weight = Var::parameter(Matrix::full(1, 1, 0.0));
//! let mut adam = Adam::new(vec![weight.clone()], 0.1);
//! let x = Matrix::column_vector(&[1.0, 2.0, 3.0]);
//! let y = Matrix::column_vector(&[2.0, 4.0, 6.0]);
//! for _ in 0..300 {
//!     adam.zero_grad();
//!     let prediction = Var::new(x.clone()).matmul(&weight);
//!     prediction.mse(&y).backward();
//!     adam.step();
//! }
//! assert!((weight.value().get(0, 0) - 2.0).abs() < 0.05);
//! ```

pub mod matrix;
pub mod nn;
pub mod optim;
pub mod profile;
pub mod tape;
pub mod var;

pub use matrix::Matrix;
pub use nn::{he_uniform, xavier_uniform, Embedding, Linear, Mlp};
pub use optim::{clip_grad_norm, Adam, Sgd};
pub use var::Var;
