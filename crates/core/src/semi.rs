//! The semi-supervised format selector (the paper's contribution).
//!
//! Training has two decoupled stages, which is exactly what makes the
//! method portable and explainable:
//!
//! 1. **Clustering** (unsupervised, architecture-independent): embed the
//!    Table 1 features through the transform → scale → PCA pipeline and
//!    cluster with K-Means, Mean-Shift, or Birch.
//! 2. **Cluster labeling** (cheap, per-architecture): decide each
//!    cluster's *single* format label from benchmark labels of (a fraction
//!    of) its members — by Majority Vote, or by fitting a small Logistic
//!    Regression / Random Forest on the benchmarked members and taking its
//!    prediction at the cluster centroid. Either way a cluster carries one
//!    format, which is what makes the classification explainable.
//!
//! Prediction assigns a new matrix to the nearest cluster centroid and
//! applies that cluster's labeling rule. Porting to a new architecture
//! only repeats stage 2 ([`SemiSupervisedSelector::relabel`]).

use serde::{Deserialize, Serialize};
use spsel_features::{Embedding, FeatureVector, Preprocessor};
use spsel_matrix::Format;
use spsel_ml::cluster::{birch::Birch, kmeans::KMeans, meanshift::MeanShift};
use spsel_ml::forest::{RandomForest, RandomForestParams};
use spsel_ml::logreg::LogisticRegression;
use spsel_ml::{Classifier, ClusterAlgorithm, Clustering, Dataset};
use std::sync::Arc;

/// Clustering algorithm choice (the rows of the paper's Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ClusterMethod {
    /// K-Means with `nc` clusters.
    KMeans { nc: usize },
    /// Mean-Shift (determines its own cluster count).
    MeanShift,
    /// Birch with `nc` final clusters.
    Birch { nc: usize },
}

impl ClusterMethod {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ClusterMethod::KMeans { .. } => "K-Means",
            ClusterMethod::MeanShift => "Mean-Shift",
            ClusterMethod::Birch { .. } => "Birch",
        }
    }
}

/// Cluster-labeling strategy (the columns of the paper's Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Labeler {
    /// Majority vote over benchmarked members.
    Vote,
    /// Per-cluster logistic regression on the embedded features.
    LogisticRegression,
    /// Per-cluster random forest on the embedded features.
    RandomForest,
}

impl Labeler {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Labeler::Vote => "VOTE",
            Labeler::LogisticRegression => "LR",
            Labeler::RandomForest => "RF",
        }
    }
}

/// Configuration of the semi-supervised selector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SemiConfig {
    /// Clustering algorithm.
    pub method: ClusterMethod,
    /// Cluster-labeling strategy.
    pub labeler: Labeler,
    /// Seed for clustering and per-cluster models.
    pub seed: u64,
    /// PCA dimensionality of the embedding (the paper uses 8).
    pub pca_dim: usize,
}

impl SemiConfig {
    /// Paper-default configuration: K-Means + majority vote.
    pub fn new(method: ClusterMethod, labeler: Labeler, seed: u64) -> Self {
        SemiConfig {
            method,
            labeler,
            seed,
            pca_dim: spsel_features::pipeline::DEFAULT_PCA_DIM,
        }
    }
}

/// The labeler-independent half of a fitted selector: the embedding
/// (pipeline and embedded training points) and its clustering. Produced
/// by [`SemiSupervisedSelector::fit_clustering`] (or, from a pooled
/// embedding, by [`crate::share::FitPool::clustering`]); turned into a
/// full selector — for any labeler — by
/// [`SemiSupervisedSelector::from_clustering`].
#[derive(Debug, Clone)]
pub struct FittedClustering {
    embedding: Arc<Embedding>,
    clustering: Clustering,
}

impl FittedClustering {
    /// Number of clusters the fit produced (Mean-Shift decides its own).
    pub fn n_clusters(&self) -> usize {
        self.clustering.n_clusters()
    }
}

/// A fitted semi-supervised selector.
///
/// Serializes in full (pipeline, clustering, per-member label state) so a
/// trained selector can be shipped as a model artifact and reloaded with
/// bit-identical predictions — see the `spsel-serve` crate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SemiSupervisedSelector {
    config: SemiConfig,
    preprocessor: Preprocessor,
    clustering: Clustering,
    /// Embedded training points (kept for relabeling).
    embedded: Vec<Vec<f64>>,
    /// Current per-member labels: target-architecture measurements where a
    /// member has been benchmarked, the labels seen at fit time otherwise
    /// (kept so relabeling can vote over *all* members, not just the
    /// benchmarked subset).
    member_labels: Vec<Format>,
    /// Whether each member's label is a measurement on the *current*
    /// architecture (fresh) or carried over from fit time (stale).
    member_fresh: Vec<bool>,
    /// One format label per cluster.
    labels: Vec<Format>,
}

/// Tie-break preference across the whole format universe: the paper's
/// CSR-first convention for the CUSP four, extended formats last.
const TIE_ORDER: [Format; Format::UNIVERSE_COUNT] = [
    Format::Csr,
    Format::Ell,
    Format::Hyb,
    Format::Coo,
    Format::Bsr,
    Format::Sell,
    Format::Dia,
];

/// Majority format among `labels`, ties broken toward the globally more
/// common format (lower Format index order as final tie-break).
fn majority(labels: &[Format], fallback: Format) -> Format {
    if labels.is_empty() {
        return fallback;
    }
    let mut counts = [0usize; Format::UNIVERSE_COUNT];
    for l in labels {
        counts[l.index()] += 1;
    }
    // CSR-first order mirrors the "default to CSR" convention on ties
    // (strict comparison keeps the earliest maximum). Extended-registry
    // formats vote after the CUSP four, so any label set confined to the
    // default registry behaves exactly as before.
    let order = TIE_ORDER;
    let mut best = order[0];
    for f in order {
        if counts[f.index()] > counts[best.index()] {
            best = f;
        }
    }
    best
}

/// Public majority vote over a label set: the format most of `labels`
/// name, ties broken CSR-first (the private `majority`'s rule), `fallback` when the
/// set is empty. Used by artifact training to label clusters under
/// alternative workloads with the same rule the fit-time labeler uses.
pub fn majority_label(labels: &[Format], fallback: Format) -> Format {
    majority(labels, fallback)
}

/// Weighted majority: each `(label, weight)` pair contributes its weight to
/// the label's count. Exact ties prefer `prior` when given (evidence that
/// merely ties must not overturn the label a cluster already carries),
/// otherwise fall back to CSR-first order as in [`majority`].
fn weighted_majority(votes: &[(Format, f64)], fallback: Format, prior: Option<Format>) -> Format {
    let mut counts = [0.0f64; Format::UNIVERSE_COUNT];
    let mut total = 0.0;
    for &(l, w) in votes {
        counts[l.index()] += w;
        total += w;
    }
    if total == 0.0 {
        return fallback;
    }
    let order = TIE_ORDER;
    let mut best = order[0];
    for f in order {
        if counts[f.index()] > counts[best.index()] {
            best = f;
        }
    }
    if let Some(p) = prior {
        if counts[p.index()] == counts[best.index()] {
            return p;
        }
    }
    best
}

impl SemiSupervisedSelector {
    /// Fit clustering on all features, then label clusters using the given
    /// per-matrix benchmark labels (the *local* protocol: every training
    /// matrix is benchmarked).
    ///
    /// ```
    /// use spsel_core::semi::{ClusterMethod, Labeler, SemiConfig, SemiSupervisedSelector};
    /// use spsel_features::FeatureVector;
    /// use spsel_matrix::{gen, CsrMatrix, Format};
    ///
    /// let features: Vec<FeatureVector> = (0..8)
    ///     .map(|s| FeatureVector::from_csr(&CsrMatrix::from(&gen::stencil2d(10 + s, s as u64))))
    ///     .collect();
    /// let labels = vec![Format::Ell; 8];
    /// let cfg = SemiConfig::new(ClusterMethod::KMeans { nc: 2 }, Labeler::Vote, 1);
    /// let sel = SemiSupervisedSelector::fit(&features, &labels, cfg);
    /// assert_eq!(sel.predict(&features[0]), Format::Ell);
    /// ```
    pub fn fit(features: &[FeatureVector], labels: &[Format], config: SemiConfig) -> Self {
        let fc = Self::fit_clustering(features, config.method, config.seed, config.pca_dim);
        Self::from_clustering(&fc, labels, config)
    }

    /// Stage 1 alone: embed and cluster `features`. The result depends
    /// only on `(features, method, seed, pca_dim)` — not on the labeler
    /// or on any benchmark label — so table cells that train different
    /// labelers on the same fold of the same GPU can share one fitted
    /// clustering (see `spsel_core::share::FitPool`).
    pub fn fit_clustering(
        features: &[FeatureVector],
        method: ClusterMethod,
        seed: u64,
        pca_dim: usize,
    ) -> FittedClustering {
        assert!(!features.is_empty(), "cannot fit on an empty corpus");
        Self::cluster(Arc::new(Embedding::fit(features, pca_dim)), method, seed)
    }

    /// The second half of stage 1: cluster an embedded training set.
    /// `fit_clustering` is `cluster` of [`Embedding::fit`], so every
    /// clustering of one training set, whatever its method, can share one
    /// embedding (see `spsel_core::share::FitPool::clustering`).
    pub(crate) fn cluster(
        embedding: Arc<Embedding>,
        method: ClusterMethod,
        seed: u64,
    ) -> FittedClustering {
        let rows = embedding.rows();
        let clustering = match method {
            ClusterMethod::KMeans { nc } => KMeans::new(nc, seed).fit(rows),
            ClusterMethod::MeanShift => MeanShift::default().fit(rows),
            ClusterMethod::Birch { nc } => Birch::new(nc, seed).fit(rows),
        };
        FittedClustering {
            embedding,
            clustering,
        }
    }

    /// Stage 2 alone: label the clusters of a pre-fitted embedding.
    /// `fit(features, labels, config)` is definitionally
    /// `from_clustering(&fit_clustering(features, ...), labels, config)`,
    /// so a selector built from a shared clustering is bit-identical to
    /// one fitted from scratch. `config` must be the configuration the
    /// clustering was fitted under (method, seed, pca_dim).
    pub fn from_clustering(fc: &FittedClustering, labels: &[Format], config: SemiConfig) -> Self {
        assert_eq!(
            fc.embedding.rows().len(),
            labels.len(),
            "one label per matrix"
        );
        let mut selector = SemiSupervisedSelector {
            config,
            preprocessor: fc.embedding.preprocessor().clone(),
            clustering: fc.clustering.clone(),
            embedded: fc.embedding.rows().to_vec(),
            member_labels: labels.to_vec(),
            member_fresh: vec![true; labels.len()],
            labels: Vec::new(),
        };
        selector.label_clusters(None, 1.0);
        selector
    }

    /// (Re-)label every cluster after benchmarking a subset of training
    /// matrices on a new architecture: `benchmarked[i]` is an index into
    /// the training set and `labels[i]` its measured best format on the
    /// target architecture.
    ///
    /// Benchmarked members take their fresh target labels. Every other
    /// member keeps the (now stale) label it carried before, with its vote
    /// discounted by the observed source/target agreement: if the fresh
    /// measurements agree with the labels they replace at rate `r`, a stale
    /// vote counts `max(0, 2r - 1)` of a fresh one (its excess reliability
    /// over chance). Discarding the unbenchmarked members entirely would
    /// let one or two noisy target samples overturn a label backed by the
    /// whole cluster; counting them at full weight would stop a 50% budget
    /// from ever flipping a cluster whose optimal format really changed.
    ///
    /// This is the porting step: on a new architecture only the benchmarked
    /// subset costs machine time; the clustering is reused unchanged.
    pub fn relabel(&mut self, benchmarked: &[usize], labels: &[Format]) {
        assert_eq!(benchmarked.len(), labels.len());
        // Agreement between fresh measurements and the labels they replace
        // estimates how trustworthy the remaining stale labels are.
        let agree = benchmarked
            .iter()
            .zip(labels)
            .filter(|&(&i, l)| self.member_labels[i] == *l)
            .count();
        let stale_weight = if benchmarked.is_empty() {
            1.0
        } else {
            (2.0 * agree as f64 / benchmarked.len() as f64 - 1.0).max(0.0)
        };
        self.member_fresh = vec![false; self.member_labels.len()];
        for (pos, &i) in benchmarked.iter().enumerate() {
            self.member_labels[i] = labels[pos];
            self.member_fresh[i] = true;
        }
        let old = std::mem::take(&mut self.labels);
        self.label_clusters(Some(old), stale_weight);
    }

    fn label_clusters(&mut self, previous: Option<Vec<Format>>, stale_weight: f64) {
        let nc = self.clustering.n_clusters();
        // Group every training member by its cluster.
        let mut by_cluster: Vec<Vec<(usize, Format, bool)>> = vec![Vec::new(); nc];
        for (i, &label) in self.member_labels.iter().enumerate() {
            let c = self.clustering.assignments[i];
            by_cluster[c].push((i, label, self.member_fresh[i]));
        }
        // Global majority as the fallback for clusters with no members.
        let global = majority(&self.member_labels, Format::Csr);

        self.labels = (0..nc)
            .map(|c| {
                let members = &by_cluster[c];
                let fresh: Vec<(usize, Format)> = members
                    .iter()
                    .filter(|&&(_, _, f)| f)
                    .map(|&(i, l, _)| (i, l))
                    .collect();
                // A cluster without any fresh measurement keeps its
                // previous label: there is no new evidence to act on.
                if fresh.is_empty() {
                    if let Some(old) = &previous {
                        return old[c];
                    }
                    if members.is_empty() {
                        return global;
                    }
                }
                let votes: Vec<(Format, f64)> = members
                    .iter()
                    .map(|&(_, l, f)| (l, if f { 1.0 } else { stale_weight }))
                    .collect();
                let prior = previous.as_ref().map(|old| old[c]);
                let maj = weighted_majority(&votes, global, prior);
                let mut model: Box<dyn Classifier> = match self.config.labeler {
                    Labeler::Vote => return maj,
                    Labeler::LogisticRegression => Box::new(LogisticRegression::with_defaults()),
                    Labeler::RandomForest => Box::new(RandomForest::new(RandomForestParams {
                        n_estimators: 25,
                        seed: self.config.seed ^ c as u64,
                        ..Default::default()
                    })),
                };
                // The per-cluster model trains on the members whose labels
                // are trusted for the current architecture: all members at
                // fit time, the benchmarked subset after a relabel.
                let trusted = if previous.is_none() {
                    members.iter().map(|&(i, l, _)| (i, l)).collect()
                } else {
                    fresh
                };
                let distinct = trusted
                    .iter()
                    .map(|&(_, l)| l)
                    .collect::<std::collections::HashSet<_>>()
                    .len();
                // Pure or tiny clusters need no model; this is also what
                // keeps LR/RF labeling cheap (paper Table 9).
                if distinct <= 1 || trusted.len() < 4 {
                    return maj;
                }
                let x: Vec<Vec<f64>> = trusted
                    .iter()
                    .map(|&(i, _)| self.embedded[i].clone())
                    .collect();
                let y: Vec<usize> = trusted.iter().map(|&(_, l)| l.index()).collect();
                // Class count is derived from the labels (not stored in
                // SemiConfig, which old artifacts serialize): all-CUSP
                // label sets keep the historical 4-class space.
                let nc = crate::label_class_count(trusted.iter().map(|&(_, l)| l));
                model.fit(&Dataset::new(x, y, nc));
                Format::from_index(model.predict_one(&self.clustering.centroids[c]))
            })
            .collect();
    }

    /// Number of clusters (the paper's NC column).
    pub fn n_clusters(&self) -> usize {
        self.clustering.n_clusters()
    }

    /// The configuration the selector was fitted with.
    pub fn config(&self) -> &SemiConfig {
        &self.config
    }

    /// The fitted clustering.
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// The fitted preprocessing pipeline.
    pub fn preprocessor(&self) -> &Preprocessor {
        &self.preprocessor
    }

    /// Predict the format for a matrix's feature vector: the label of the
    /// nearest cluster.
    pub fn predict(&self, features: &FeatureVector) -> Format {
        let z = self.preprocessor.embed(features);
        self.labels[self.clustering.assign(&z)]
    }

    /// The cluster a feature vector lands in (without consulting the
    /// label table) — the hook per-workload label tables index with.
    pub fn predict_cluster(&self, features: &FeatureVector) -> usize {
        self.clustering.assign(&self.preprocessor.embed(features))
    }

    /// The per-cluster format labels.
    pub fn cluster_labels(&self) -> &[Format] {
        &self.labels
    }

    /// Predict a batch of feature vectors.
    pub fn predict_batch(&self, features: &[FeatureVector]) -> Vec<Format> {
        features.iter().map(|f| self.predict(f)).collect()
    }

    /// Explain a prediction: the cluster id, its centroid distance, the
    /// cluster's size in the training set, and the decision rule used.
    /// This is the "explainability" the paper contrasts with black-box
    /// supervised models.
    pub fn explain(&self, features: &FeatureVector) -> Explanation {
        let z = self.preprocessor.embed(features);
        let c = self.clustering.assign(&z);
        let members = self
            .clustering
            .assignments
            .iter()
            .filter(|&&a| a == c)
            .count();
        let dist = spsel_ml::dist(&z, &self.clustering.centroids[c]);
        let rule = match self.config.labeler {
            Labeler::Vote => "majority vote over benchmarked members",
            Labeler::LogisticRegression => "logistic regression at the cluster centroid",
            Labeler::RandomForest => "random forest at the cluster centroid",
        };
        Explanation {
            cluster: c,
            centroid_distance: dist,
            cluster_size: members,
            rule,
            format: self.labels[c],
        }
    }
}

/// A human-readable account of one prediction.
///
/// Serialize-only: the `&'static str` rule text points at compiled-in
/// decision-rule descriptions, so explanations are emitted but never parsed
/// back.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Explanation {
    /// Cluster the matrix was assigned to.
    pub cluster: usize,
    /// Euclidean distance to that cluster's centroid in the embedding.
    pub centroid_distance: f64,
    /// Number of training matrices in the cluster.
    pub cluster_size: usize,
    /// Decision rule applied inside the cluster.
    pub rule: &'static str,
    /// The predicted format.
    pub format: Format,
}

#[cfg(test)]
mod tests {
    use super::*;
    use spsel_matrix::{gen, CsrMatrix};

    /// Features from two structurally distinct populations, labeled by
    /// population (a clean clustering problem).
    fn two_population_problem() -> (Vec<FeatureVector>, Vec<Format>) {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for s in 0..20u64 {
            // Uniform stencils -> "ELL".
            let csr = CsrMatrix::from(&gen::stencil2d(12 + s as usize % 8, s));
            features.push(FeatureVector::from_csr(&csr));
            labels.push(Format::Ell);
            // Power-law graphs -> "CSR".
            let csr = CsrMatrix::from(&gen::power_law(400, 400, 2, 2.2, 150, s));
            features.push(FeatureVector::from_csr(&csr));
            labels.push(Format::Csr);
        }
        (features, labels)
    }

    fn kmeans_cfg(labeler: Labeler) -> SemiConfig {
        SemiConfig::new(ClusterMethod::KMeans { nc: 8 }, labeler, 42)
    }

    #[test]
    fn separable_problem_is_learned_by_vote() {
        let (features, labels) = two_population_problem();
        let sel = SemiSupervisedSelector::fit(&features, &labels, kmeans_cfg(Labeler::Vote));
        let preds = sel.predict_batch(&features);
        let correct = preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
        assert!(
            correct as f64 / labels.len() as f64 > 0.9,
            "train accuracy {correct}/{}",
            labels.len()
        );
    }

    #[test]
    fn all_labelers_work() {
        let (features, labels) = two_population_problem();
        for labeler in [
            Labeler::Vote,
            Labeler::LogisticRegression,
            Labeler::RandomForest,
        ] {
            let sel = SemiSupervisedSelector::fit(&features, &labels, kmeans_cfg(labeler));
            let preds = sel.predict_batch(&features);
            let acc = preds.iter().zip(&labels).filter(|(p, l)| p == l).count() as f64
                / labels.len() as f64;
            assert!(acc > 0.8, "{}: accuracy {acc}", labeler.name());
        }
    }

    #[test]
    fn all_cluster_methods_work() {
        let (features, labels) = two_population_problem();
        for method in [
            ClusterMethod::KMeans { nc: 6 },
            ClusterMethod::MeanShift,
            ClusterMethod::Birch { nc: 6 },
        ] {
            let sel = SemiSupervisedSelector::fit(
                &features,
                &labels,
                SemiConfig::new(method, Labeler::Vote, 1),
            );
            assert!(sel.n_clusters() >= 1, "{}", method.name());
            let preds = sel.predict_batch(&features);
            let acc = preds.iter().zip(&labels).filter(|(p, l)| p == l).count() as f64
                / labels.len() as f64;
            assert!(acc > 0.6, "{}: accuracy {acc}", method.name());
        }
    }

    #[test]
    fn relabel_flips_cluster_labels() {
        let (features, labels) = two_population_problem();
        let mut sel = SemiSupervisedSelector::fit(&features, &labels, kmeans_cfg(Labeler::Vote));
        // Target architecture inverts the labels; relabel with everything.
        let flipped: Vec<Format> = labels
            .iter()
            .map(|l| {
                if *l == Format::Ell {
                    Format::Csr
                } else {
                    Format::Ell
                }
            })
            .collect();
        let all: Vec<usize> = (0..labels.len()).collect();
        sel.relabel(&all, &flipped);
        let preds = sel.predict_batch(&features);
        let acc =
            preds.iter().zip(&flipped).filter(|(p, l)| p == l).count() as f64 / labels.len() as f64;
        assert!(acc > 0.9, "accuracy after relabel {acc}");
    }

    #[test]
    fn relabel_with_partial_data_keeps_old_labels_elsewhere() {
        let (features, labels) = two_population_problem();
        let mut sel = SemiSupervisedSelector::fit(&features, &labels, kmeans_cfg(Labeler::Vote));
        let before = sel.predict_batch(&features);
        // Relabel with an empty benchmark set: nothing must change.
        sel.relabel(&[], &[]);
        assert_eq!(sel.predict_batch(&features), before);
    }

    #[test]
    fn explanation_is_consistent_with_prediction() {
        let (features, labels) = two_population_problem();
        let sel = SemiSupervisedSelector::fit(&features, &labels, kmeans_cfg(Labeler::Vote));
        for f in features.iter().take(5) {
            let e = sel.explain(f);
            assert_eq!(e.format, sel.predict(f));
            assert!(e.cluster < sel.n_clusters());
            assert!(e.cluster_size >= 1);
            assert!(e.centroid_distance.is_finite());
        }
    }

    #[test]
    fn majority_prefers_csr_on_tie() {
        assert_eq!(
            majority(&[Format::Coo, Format::Csr], Format::Hyb),
            Format::Csr
        );
        assert_eq!(majority(&[], Format::Hyb), Format::Hyb);
        assert_eq!(
            majority(&[Format::Coo, Format::Coo, Format::Csr], Format::Hyb),
            Format::Coo
        );
    }
}
