//! Table 5: the semi-supervised approach under transfer, six GPU pairs x
//! nine algorithms x three retraining budgets.

use super::{ExperimentContext, TRANSFER_PAIRS};
use crate::semi::{ClusterMethod, Labeler, SemiConfig};
use crate::share::FitPool;
use crate::transfer::{transfer_semi, TransferInput};
use serde::{Deserialize, Serialize};
use spsel_gpusim::Gpu;

/// Configuration of the Table 5 run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table5Config {
    /// Candidate cluster counts for K-Means and Birch.
    pub nc_candidates: Vec<usize>,
    /// Cross-validation folds.
    pub folds: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for Table5Config {
    fn default() -> Self {
        Table5Config {
            nc_candidates: vec![100, 200, 400],
            folds: 5,
            seed: 23,
        }
    }
}

/// One row of Table 5: an algorithm under one transfer pair, at all three
/// retraining budgets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table5Row {
    /// "K-Means-VOTE" etc.
    pub algorithm: String,
    /// Number of clusters used.
    pub nc: usize,
    /// `[mcc, acc, f1]` per budget in `RetrainBudget::ALL` order.
    pub budgets: [[f64; 3]; 3],
}

/// Table 5 contents.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table5 {
    /// `(source, target, rows)` per transfer pair.
    pub pairs: Vec<(Gpu, Gpu, Vec<Table5Row>)>,
}

const LABELERS: [Labeler; 3] = [
    Labeler::Vote,
    Labeler::LogisticRegression,
    Labeler::RandomForest,
];

/// Run the transfer evaluation over all six GPU pairs (pairs whose source
/// or target GPU degraded away are skipped).
///
/// Clusterings come from one [`FitPool`]: a fold's clustering depends on
/// neither the labeler nor the source GPU, so the three labelers, and the
/// two pairs that share a target, fit it once; and the Mean-Shift NC
/// probe is one fit for all six pairs. Outputs are bit-identical to
/// unpooled fits.
pub fn run(ctx: &ExperimentContext, cfg: &Table5Config) -> Table5 {
    let pool = FitPool::new();
    let common = ctx.common_subset();
    let features = ctx.features(&common);
    let active = ctx.active_gpus();
    let mut pairs = Vec::new();
    for (source, target) in TRANSFER_PAIRS {
        if !active.contains(&source) || !active.contains(&target) {
            eprintln!("degradation: skipping transfer {source} to {target} (GPU lost)");
            continue;
        }
        let (Ok(source_results), Ok(target_results)) =
            (ctx.results(source, &common), ctx.results(target, &common))
        else {
            continue; // common subset is feasible on active GPUs
        };
        let input = TransferInput {
            features: &features,
            images: None,
            source: &source_results,
            target: &target_results,
        };
        // Mean-Shift discovers its own cluster count; measure it on the
        // whole common subset so the NC column is informative.
        let ms_cfg = SemiConfig::new(ClusterMethod::MeanShift, Labeler::Vote, cfg.seed);
        let ms_nc = pool
            .clustering(&features, ms_cfg.method, ms_cfg.seed, ms_cfg.pca_dim)
            .n_clusters();
        let mut rows = Vec::new();
        for base_method in [
            ClusterMethod::KMeans { nc: 0 },
            ClusterMethod::MeanShift,
            ClusterMethod::Birch { nc: 0 },
        ] {
            for labeler in LABELERS {
                let candidates: Vec<usize> = match base_method {
                    ClusterMethod::MeanShift => vec![0],
                    _ => cfg.nc_candidates.clone(),
                };
                let mut best: Option<Table5Row> = None;
                for nc in candidates {
                    let method = match base_method {
                        ClusterMethod::KMeans { .. } => ClusterMethod::KMeans { nc },
                        ClusterMethod::Birch { .. } => ClusterMethod::Birch { nc },
                        ClusterMethod::MeanShift => ClusterMethod::MeanShift,
                    };
                    let semi_cfg = SemiConfig::new(method, labeler, cfg.seed);
                    let qs = transfer_semi(input, semi_cfg, cfg.folds, cfg.seed, &pool);
                    let mut budgets = [[0.0; 3]; 3];
                    for (bi, q) in qs.iter().enumerate() {
                        budgets[bi] = [q.mcc, q.acc, q.f1];
                    }
                    let row = Table5Row {
                        algorithm: format!("{}-{}", method.name(), labeler.name()),
                        nc: if matches!(method, ClusterMethod::MeanShift) {
                            ms_nc
                        } else {
                            nc
                        },
                        budgets,
                    };
                    // Select NC by the 0%-budget MCC (transfer without
                    // target data is the headline scenario).
                    if best
                        .as_ref()
                        .is_none_or(|b| row.budgets[0][0] > b.budgets[0][0])
                    {
                        best = Some(row);
                    }
                }
                if let Some(row) = best {
                    rows.push(row);
                }
            }
        }
        pairs.push((source, target, rows));
    }
    Table5 { pairs }
}

impl Table5 {
    /// Render in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24}{:>6} |{:>7}{:>7}{:>7} |{:>7}{:>7}{:>7} |{:>7}{:>7}{:>7}\n",
            "Algorithm",
            "NC",
            "MCC-0",
            "ACC-0",
            "F1-0",
            "MCC-25",
            "ACC-25",
            "F1-25",
            "MCC-50",
            "ACC-50",
            "F1-50"
        ));
        for (source, target, rows) in &self.pairs {
            out.push_str(&format!("--- {source} to {target} ---\n"));
            for row in rows {
                out.push_str(&format!("{:<24}{:>6} ", row.algorithm, row.nc));
                for b in 0..3 {
                    out.push_str(&format!(
                        "|{:>7.3}{:>7.3}{:>7.3} ",
                        row.budgets[b][0], row.budgets[b][1], row.budgets[b][2]
                    ));
                }
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;

    #[test]
    fn small_transfer_run() {
        let ctx = ExperimentContext::new(CorpusConfig::small(24, 9));
        let cfg = Table5Config {
            nc_candidates: vec![5],
            folds: 3,
            seed: 2,
        };
        let t = run(&ctx, &cfg);
        assert_eq!(t.pairs.len(), 6);
        for (_, _, rows) in &t.pairs {
            assert_eq!(rows.len(), 9);
        }
        let rendered = t.render();
        assert!(rendered.contains("Pascal to Turing"));
        assert!(rendered.contains("Volta to Turing"));
    }
}
