//! Statistical feature extraction and preprocessing for sparse matrix
//! format selection.
//!
//! Implements the 21 features of Table 1 in the paper, computed in a single
//! O(nnz) pass over a CSR matrix, plus the preprocessing pipeline the
//! paper's semi-supervised method depends on: per-feature log/sqrt
//! transforms for sparsely-distributed features, min-max scaling to
//! `[0, 1]`, and PCA down to an 8-dimensional embedding where Euclidean
//! distance correlates with matrix similarity.
//!
//! ```
//! use spsel_matrix::{gen, CsrMatrix};
//! use spsel_features::{FeatureVector, MatrixStats};
//!
//! let csr = CsrMatrix::from(&gen::stencil2d(16, 0));
//! let stats = MatrixStats::from_csr(&csr);
//! let fv = FeatureVector::from_stats(&stats);
//! assert_eq!(fv.get(spsel_features::FeatureId::NnzMax), 5.0);
//! ```

pub mod extract;
pub mod feature;
pub mod image;
pub mod pca;
pub mod pipeline;
pub mod scale;
pub mod stats;
pub mod transform;

pub use extract::FeatureExtractor;
pub use feature::{FeatureId, FeatureVector, NUM_FEATURES};
pub use image::DensityImage;
pub use pca::Pca;
pub use pipeline::{Embedding, Preprocessor};
pub use scale::MinMaxScaler;
pub use stats::MatrixStats;
pub use transform::{Transform, TransformSet};
