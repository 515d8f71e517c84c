//! # spa-linalg — dense & sparse linear algebra substrate
//!
//! Minimal, allocation-conscious vector/matrix kernels backing the ML
//! substrate (`spa-ml`) and the user-model feature pipeline.
//!
//! The user×attribute matrix of the paper is extremely sparse (most users
//! answer only a handful of Gradual-EIT questions — §5.2 explicitly calls
//! out "the sparsity problem in data"), so the central type here is
//! [`SparseVec`], a sorted coordinate-list vector, together with
//! [`CsrMatrix`] for row-major sparse datasets. Dense kernels operate on
//! plain slices to stay composable with caller-owned buffers.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod dense;
pub mod matrix;
pub(crate) mod row;
pub mod similarity;
pub(crate) mod sparse;
pub mod stats;

pub use matrix::CsrMatrix;
pub use row::{RowView, SparseRow};
pub use sparse::SparseVec;
