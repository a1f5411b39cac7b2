//! Semi-supervised sparse matrix format selection.
//!
//! This crate is the paper's primary contribution plus the experiment
//! harness around it:
//!
//! * [`corpus`] — a seeded synthetic matrix corpus standing in for the
//!   SuiteSparse collection, with permutation augmentation and per-GPU
//!   ground-truth labels from the `spsel-gpusim` performance model;
//! * [`semi`] — the semi-supervised selector: cluster matrices in the
//!   transformed feature space, then label each cluster with a small
//!   amount of benchmark data (Majority Vote, Logistic Regression, or
//!   Random Forest per cluster);
//! * [`supervised`] — the six supervised baselines (DT, RF, SVM, KNN,
//!   XGBoost, CNN) behind one interface;
//! * [`transfer`] — the evaluation protocols: local k-fold
//!   cross-validation and cross-architecture transfer with 0 / 25 / 50 %
//!   retraining budgets;
//! * [`speedup`] — the paper's GT / CSR / Threshold performance columns;
//! * [`experiments`] — one runner per table of the paper (Tables 2-9 plus
//!   the Section 5.1 worst-case anecdote).

pub mod cache;
pub mod corpus;
pub mod error;
pub mod experiments;
pub mod online;
pub mod overhead;
pub mod semi;
pub mod share;
pub mod speedup;
pub mod supervised;
pub mod telemetry;
pub mod transfer;

pub use cache::{Cache, GcConfig, GcReport};
pub use corpus::{Corpus, CorpusConfig, MatrixRecord};
pub use error::{CoreError, CoreResult};
pub use online::{
    ContentionReport, DecisionPhaseNs, OnlineContention, OnlineDecision, OnlineFeedbackView,
    OnlineSnapshot, OnlineStateData, OnlineView, ShardedOnlineSelector,
};
pub use overhead::{amortized_best, break_even_iterations, AmortizedChoice};
pub use semi::{ClusterMethod, Labeler, SemiConfig, SemiSupervisedSelector};
pub use speedup::{selection_quality, SelectionQuality};
pub use supervised::{SupervisedConfig, SupervisedModel};
pub use telemetry::{DegradationReport, RunReport};
pub use transfer::{
    local_semi, local_supervised, transfer_semi, transfer_supervised, RetrainBudget,
};

/// Class count for a training label set: the paper's 4-class space
/// ([`spsel_matrix::Format::COUNT`]) when every label is one of the CUSP
/// formats — keeping the default registry bit-identical to the historical
/// pipeline — and one past the largest stable format id otherwise. This
/// is derived from data rather than stored in any serialized config so
/// that pre-registry model artifacts keep loading unchanged.
pub fn label_class_count(labels: impl IntoIterator<Item = spsel_matrix::Format>) -> usize {
    labels
        .into_iter()
        .map(|l| l.index() + 1)
        .max()
        .unwrap_or(0)
        .max(spsel_matrix::Format::COUNT)
}
