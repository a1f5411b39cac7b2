//! Ablation studies for the design choices the paper motivates but does
//! not sweep exhaustively:
//!
//! * the log/sqrt feature transform (the paper's key fix — Section 4
//!   reports that naive clustering "does not work well");
//! * the PCA dimensionality (the paper fixes 8);
//! * the number of clusters NC (the paper's accuracy/training-cost
//!   trade-off);
//! * the number of matrices benchmarked per cluster (the paper's Section 4
//!   worked example: one vote vs two votes per cluster).

use super::ExperimentContext;
use crate::semi::{ClusterMethod, Labeler, SemiConfig, SemiSupervisedSelector};
use crate::share::FitPool;
use crate::speedup::selection_quality;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use spsel_features::{FeatureVector, Preprocessor};
use spsel_gpusim::Gpu;
use spsel_matrix::Format;
use spsel_ml::cluster::{cluster_purity, kmeans::KMeans};
use spsel_ml::cv::stratified_kfold;
use spsel_ml::ClusterAlgorithm;

/// Result of the transform ablation: clustering quality with and without
/// the variance-stabilizing transforms.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransformAblation {
    /// Weighted cluster purity with the full pipeline.
    pub purity_with: f64,
    /// Weighted cluster purity with raw (only min-max scaled) features.
    pub purity_without: f64,
    /// Size of the largest cluster with transforms (balance indicator).
    pub max_cluster_with: usize,
    /// Size of the largest cluster without transforms.
    pub max_cluster_without: usize,
    /// Number of clusters requested.
    pub nc: usize,
}

/// Compare clustering purity with and without the log/sqrt transforms
/// (the paper's observation: raw power-law features produce outlier
/// clusters and impure mega-clusters).
pub fn transforms(ctx: &ExperimentContext, gpu: Gpu, nc: usize, seed: u64) -> TransformAblation {
    let ds = ctx.dataset(gpu);
    let features = ctx.features(&ds);
    let labels: Vec<usize> = ctx
        .results(gpu, &ds)
        .map(|rs| rs.iter().map(|r| r.best.index()).collect())
        .unwrap_or_default();
    let rows: Vec<Vec<f64>> = features.iter().map(|f| f.as_slice().to_vec()).collect();

    let run = |pre: &Preprocessor| -> (f64, usize) {
        let embedded: Vec<Vec<f64>> = rows.iter().map(|r| pre.embed_row(r)).collect();
        let clustering = KMeans::new(nc, seed).fit(&embedded);
        let (_, purity) = cluster_purity(&clustering, &labels, Format::COUNT);
        let max_cluster = clustering
            .members()
            .iter()
            .map(|m| m.len())
            .max()
            .unwrap_or(0);
        (purity, max_cluster)
    };

    let with = Preprocessor::fit_rows(&rows, Some(8));
    let without = Preprocessor::fit_without_transforms(&rows, Some(8));
    let (purity_with, max_cluster_with) = run(&with);
    let (purity_without, max_cluster_without) = run(&without);
    TransformAblation {
        purity_with,
        purity_without,
        max_cluster_with,
        max_cluster_without,
        nc,
    }
}

/// One point of the PCA-dimension sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PcaPoint {
    /// Kept components.
    pub dim: usize,
    /// Cross-validated MCC of K-Means-VOTE in that embedding.
    pub mcc: f64,
    /// Cross-validated accuracy.
    pub acc: f64,
    /// Variance fraction captured by the kept components.
    pub explained: f64,
}

/// Sweep the PCA dimensionality (the paper fixes 8).
pub fn pca_sweep(
    ctx: &ExperimentContext,
    gpu: Gpu,
    dims: &[usize],
    nc: usize,
    folds: usize,
    seed: u64,
) -> Vec<PcaPoint> {
    let ds = ctx.dataset(gpu);
    let features = ctx.features(&ds);
    let Ok(results) = ctx.results(gpu, &ds) else {
        return Vec::new(); // dataset indices are feasible by construction
    };
    // Grid points run through the parallel runtime; each derives its work
    // from (dim, seed) alone and fills its own slot, so worker count does
    // not change the sweep. No two points share a fit (each has its own
    // PCA dimension); the pool is only the protocol's way to fit.
    let pool = FitPool::new();
    dims.par_iter()
        .map(|&dim| {
            let mut cfg = SemiConfig::new(ClusterMethod::KMeans { nc }, Labeler::Vote, seed);
            cfg.pca_dim = dim;
            let q = crate::transfer::local_semi(&features, &results, cfg, folds, seed, &pool);
            // Explained variance measured on the full dataset.
            let rows: Vec<Vec<f64>> = features.iter().map(|f| f.as_slice().to_vec()).collect();
            let pre = Preprocessor::fit_rows(&rows, Some(dim));
            let explained = pre.pca().map_or(1.0, |p| p.explained_variance_ratio());
            PcaPoint {
                dim,
                mcc: q.mcc,
                acc: q.acc,
                explained,
            }
        })
        .collect()
}

/// One point of the NC sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NcPoint {
    /// Number of clusters.
    pub nc: usize,
    /// Cross-validated MCC.
    pub mcc: f64,
    /// Cross-validated accuracy.
    pub acc: f64,
    /// Weighted training purity at this NC.
    pub purity: f64,
}

/// Sweep the number of clusters (the paper's accuracy vs training-cost
/// trade-off: more clusters are purer but need more benchmarks).
pub fn nc_sweep(
    ctx: &ExperimentContext,
    gpu: Gpu,
    ncs: &[usize],
    folds: usize,
    seed: u64,
) -> Vec<NcPoint> {
    let ds = ctx.dataset(gpu);
    let features = ctx.features(&ds);
    let Ok(results) = ctx.results(gpu, &ds) else {
        return Vec::new();
    };
    let labels: Vec<usize> = results.iter().map(|r| r.best.index()).collect();
    let rows: Vec<Vec<f64>> = features.iter().map(|f| f.as_slice().to_vec()).collect();
    let pre = Preprocessor::fit_rows(&rows, Some(8));
    let embedded: Vec<Vec<f64>> = rows.iter().map(|r| pre.embed_row(r)).collect();

    let pool = FitPool::new();
    ncs.par_iter()
        .map(|&nc| {
            let cfg = SemiConfig::new(ClusterMethod::KMeans { nc }, Labeler::Vote, seed);
            let q = crate::transfer::local_semi(&features, &results, cfg, folds, seed, &pool);
            let clustering = KMeans::new(nc, seed).fit(&embedded);
            let (_, purity) = cluster_purity(&clustering, &labels, Format::COUNT);
            NcPoint {
                nc,
                mcc: q.mcc,
                acc: q.acc,
                purity,
            }
        })
        .collect()
}

/// One point of the votes-per-cluster experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VotesPoint {
    /// Matrices benchmarked per cluster.
    pub votes: usize,
    /// Total matrices benchmarked (the porting cost).
    pub benchmarked: usize,
    /// Test accuracy on the target architecture.
    pub acc: f64,
    /// Test MCC.
    pub mcc: f64,
}

/// The paper's Section 4 worked example, measured for real: fit clusters,
/// then label each cluster from only `votes` benchmarked members on the
/// target architecture and evaluate on a held-out fold.
pub fn votes_per_cluster(
    ctx: &ExperimentContext,
    gpu: Gpu,
    votes_options: &[usize],
    nc: usize,
    folds: usize,
    seed: u64,
) -> Vec<VotesPoint> {
    let ds = ctx.dataset(gpu);
    let features = ctx.features(&ds);
    let Ok(results) = ctx.results(gpu, &ds) else {
        return Vec::new();
    };
    let y: Vec<usize> = results.iter().map(|r| r.best.index()).collect();

    votes_options
        .par_iter()
        .map(|&votes| {
            let mut accs = Vec::new();
            let mut mccs = Vec::new();
            let mut benchmarked_total = 0usize;
            for (train, test) in stratified_kfold(&y, Format::COUNT, folds, seed) {
                let train_features: Vec<FeatureVector> =
                    train.iter().map(|&i| features[i].clone()).collect();
                let train_labels: Vec<Format> = train.iter().map(|&i| results[i].best).collect();
                // Fit clusters with *no* labels used beyond the vote subset:
                // fit() needs labels for the initial labeling, so fit with
                // the full set and then overwrite via relabel with only the
                // voted members per cluster.
                let mut sel = SemiSupervisedSelector::fit(
                    &train_features,
                    &train_labels,
                    SemiConfig::new(ClusterMethod::KMeans { nc }, Labeler::Vote, seed),
                );
                let members = sel.clustering().members();
                let mut subset = Vec::new();
                for m in &members {
                    subset.extend(m.iter().take(votes).copied());
                }
                benchmarked_total += subset.len();
                let subset_labels: Vec<Format> = subset.iter().map(|&i| train_labels[i]).collect();
                // Reset labels to the vote-subset-only view.
                sel.relabel(&subset, &subset_labels);

                let test_features: Vec<FeatureVector> =
                    test.iter().map(|&i| features[i].clone()).collect();
                let test_results: Vec<_> = test.iter().map(|&i| results[i]).collect();
                let preds = sel.predict_batch(&test_features);
                let q = selection_quality(&preds, &test_results);
                accs.push(q.acc);
                mccs.push(q.mcc);
            }
            VotesPoint {
                votes,
                benchmarked: benchmarked_total / folds,
                acc: accs.iter().sum::<f64>() / accs.len() as f64,
                mcc: mccs.iter().sum::<f64>() / mccs.len() as f64,
            }
        })
        .collect()
}

/// Render helpers for the ablation binary.
pub fn render_transforms(t: &TransformAblation) -> String {
    format!(
        "transform ablation (K-Means, NC = {}):\n  with log/sqrt:    purity {:.3}, largest cluster {}\n  without:          purity {:.3}, largest cluster {}\n",
        t.nc, t.purity_with, t.max_cluster_with, t.purity_without, t.max_cluster_without
    )
}

/// Render the PCA sweep.
pub fn render_pca(points: &[PcaPoint]) -> String {
    let mut out =
        String::from("PCA dimension sweep (K-Means-VOTE):\n  dim    MCC    ACC  explained\n");
    for p in points {
        out.push_str(&format!(
            "{:>5} {:>6.3} {:>6.3} {:>10.3}\n",
            p.dim, p.mcc, p.acc, p.explained
        ));
    }
    out
}

/// Render the NC sweep.
pub fn render_nc(points: &[NcPoint]) -> String {
    let mut out =
        String::from("cluster count sweep (K-Means-VOTE):\n   NC    MCC    ACC  purity\n");
    for p in points {
        out.push_str(&format!(
            "{:>5} {:>6.3} {:>6.3} {:>7.3}\n",
            p.nc, p.mcc, p.acc, p.purity
        ));
    }
    out
}

/// Render the votes-per-cluster experiment.
pub fn render_votes(points: &[VotesPoint]) -> String {
    let mut out =
        String::from("benchmarks per cluster (K-Means-VOTE, porting cost vs accuracy):\nvotes  benchmarked    ACC    MCC\n");
    for p in points {
        out.push_str(&format!(
            "{:>5} {:>12} {:>6.3} {:>6.3}\n",
            p.votes, p.benchmarked, p.acc, p.mcc
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;

    fn ctx() -> ExperimentContext {
        ExperimentContext::new(CorpusConfig::small(60, 13))
    }

    #[test]
    fn transform_ablation_runs() {
        let ctx = ctx();
        let t = transforms(&ctx, Gpu::Turing, 12, 3);
        assert!((0.0..=1.0).contains(&t.purity_with));
        assert!((0.0..=1.0).contains(&t.purity_without));
        assert!(t.max_cluster_with > 0);
        assert!(render_transforms(&t).contains("purity"));
    }

    #[test]
    fn pca_sweep_monotone_explained_variance() {
        let ctx = ctx();
        let points = pca_sweep(&ctx, Gpu::Pascal, &[2, 8, 16], 10, 3, 5);
        assert_eq!(points.len(), 3);
        assert!(points[0].explained <= points[1].explained + 1e-9);
        assert!(points[1].explained <= points[2].explained + 1e-9);
        assert!(render_pca(&points).contains("dim"));
    }

    #[test]
    fn nc_sweep_purity_grows_with_clusters() {
        let ctx = ctx();
        let points = nc_sweep(&ctx, Gpu::Volta, &[2, 40], 3, 5);
        assert!(
            points[1].purity >= points[0].purity - 0.02,
            "purity should not fall substantially with more clusters: {points:?}"
        );
        assert!(render_nc(&points).contains("NC"));
    }

    #[test]
    fn more_votes_do_not_hurt() {
        let ctx = ctx();
        let points = votes_per_cluster(&ctx, Gpu::Turing, &[1, 8], 10, 3, 2);
        assert_eq!(points.len(), 2);
        assert!(points[1].benchmarked >= points[0].benchmarked);
        // With more benchmarks per cluster accuracy should not collapse.
        assert!(points[1].acc + 0.05 >= points[0].acc, "{points:?}");
        assert!(render_votes(&points).contains("votes"));
    }
}
