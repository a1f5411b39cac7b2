//! From-scratch machine-learning substrate for sparse format selection.
//!
//! The paper evaluates six supervised classifiers (Decision Tree, Random
//! Forest, SVM, KNN, XGBoost, CNN) and nine semi-supervised combinations
//! (three clustering algorithms × three cluster-labeling strategies). None
//! of scikit-learn / XGBoost / TensorFlow exist in this workspace, so this
//! crate implements every algorithm from first principles:
//!
//! * classifiers: CART decision trees, bagged random forests, brute-force
//!   KNN, linear one-vs-rest SVMs, multinomial logistic regression,
//!   second-order gradient-boosted trees (XGBoost-style), and a small
//!   convolutional network on density images;
//! * clustering: K-Means (k-means++ init), Mean-Shift (flat kernel with
//!   bandwidth estimation), and Birch (CF-tree with a global refinement
//!   stage), plus an online/incremental K-Means variant for the paper's
//!   future-work scenario;
//! * evaluation: confusion matrices, accuracy, macro-F1, the multiclass
//!   Matthews correlation coefficient the paper argues for, and stratified
//!   k-fold cross-validation.

pub mod classifier;
pub mod cluster;
pub mod cnn;
pub mod cv;
pub mod data;
pub mod forest;
pub mod gboost;
pub mod knn;
pub mod logreg;
pub mod metrics;
pub mod svm;
#[cfg(test)]
mod testdata;
pub mod tree;

pub use classifier::Classifier;
pub use cluster::{
    birch::Birch, flat::FlatCentroids, kmeans::KMeans, meanshift::MeanShift, ClusterAlgorithm,
    Clustering,
};
pub use cnn::CnnClassifier;
pub use cv::stratified_kfold;
pub use data::Dataset;
pub use forest::RandomForest;
pub use gboost::GradientBoosting;
pub use knn::KnnClassifier;
pub use logreg::LogisticRegression;
pub use metrics::{accuracy, f1_score, mcc, ConfusionMatrix};
pub use svm::LinearSvm;
pub use tree::DecisionTree;

/// Squared Euclidean distance between two equal-length vectors.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between two equal-length vectors.
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    sq_dist(a, b).sqrt()
}

/// Dot product of two equal-length vectors.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}
