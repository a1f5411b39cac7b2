//! Table 4: local performance of the semi-supervised approach, nine
//! clustering × labeling combinations on each GPU.

use super::{ExperimentContext, SemiRow};
use crate::semi::{ClusterMethod, Labeler, SemiConfig};
use crate::share::FitPool;
use crate::transfer::local_semi;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Configuration of the Table 4 run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table4Config {
    /// Candidate cluster counts for K-Means and Birch; the best-MCC value
    /// is reported per combination (the paper's "series of preliminary
    /// experiments to determine a good K").
    pub nc_candidates: Vec<usize>,
    /// Cross-validation folds (the paper uses 5).
    pub folds: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for Table4Config {
    fn default() -> Self {
        Table4Config {
            nc_candidates: vec![50, 100, 150, 200, 300, 400],
            folds: 5,
            seed: 17,
        }
    }
}

/// Table 4 contents: one block of nine rows per surviving GPU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table4 {
    /// GPUs that contributed a block (all three unless one degraded away).
    pub gpus: Vec<String>,
    /// `rows[g]`: the nine algorithm rows for `gpus[g]`.
    pub rows: Vec<Vec<SemiRow>>,
}

fn methods(nc: usize) -> [ClusterMethod; 3] {
    [
        ClusterMethod::KMeans { nc },
        ClusterMethod::MeanShift,
        ClusterMethod::Birch { nc },
    ]
}

const LABELERS: [Labeler; 3] = [
    Labeler::Vote,
    Labeler::LogisticRegression,
    Labeler::RandomForest,
];

/// Run the local semi-supervised evaluation on every surviving GPU.
///
/// The nine (clustering, labeler) cells of every GPU run through the
/// parallel runtime: each cell reads shared inputs, derives all its work
/// from `cfg.seed`, and fills only its own output slot, so any worker
/// count produces the same table as a serial run. The three labeler
/// cells of one `(GPU, method, nc)` cluster identical data, so their
/// per-fold clusterings (and Mean-Shift's full-dataset NC probe) come
/// from a shared [`FitPool`] and are fitted once instead of three times;
/// cell outputs are bit-identical to unpooled fits.
pub fn run(ctx: &ExperimentContext, cfg: &Table4Config) -> Table4 {
    let pool = FitPool::new();
    let mut gpus = Vec::new();
    let mut inputs = Vec::new();
    for gpu in ctx.active_gpus() {
        let indices = ctx.dataset(gpu);
        let features = ctx.features(&indices);
        let Ok(results) = ctx.results(gpu, &indices) else {
            continue; // dataset indices are feasible by construction
        };
        gpus.push(gpu.name().to_string());
        inputs.push((features, results));
    }

    let mut cells = Vec::new();
    for g in 0..inputs.len() {
        for method in methods(0) {
            for labeler in LABELERS {
                cells.push((g, method, labeler));
            }
        }
    }
    let cells_per_gpu = methods(0).len() * LABELERS.len();

    let computed: Vec<(usize, Option<SemiRow>)> = cells
        .into_par_iter()
        .map(|(g, method, labeler)| {
            let (features, results) = &inputs[g];
            // Mean-Shift chooses its own cluster count; K-Means and
            // Birch sweep the candidates and keep the best MCC.
            let candidates: Vec<usize> = match method {
                ClusterMethod::MeanShift => vec![0],
                _ => cfg.nc_candidates.clone(),
            };
            let mut best: Option<SemiRow> = None;
            for nc in candidates {
                let m = match method {
                    ClusterMethod::KMeans { .. } => ClusterMethod::KMeans { nc },
                    ClusterMethod::Birch { .. } => ClusterMethod::Birch { nc },
                    ClusterMethod::MeanShift => ClusterMethod::MeanShift,
                };
                let semi_cfg = SemiConfig::new(m, labeler, cfg.seed);
                let q = local_semi(features, results, semi_cfg, cfg.folds, cfg.seed, &pool);
                // Report the NC actually used: for Mean-Shift, measure
                // the discovered cluster count on the full dataset.
                let nc_used = match m {
                    ClusterMethod::MeanShift => pool
                        .clustering(features, m, semi_cfg.seed, semi_cfg.pca_dim)
                        .n_clusters(),
                    _ => nc,
                };
                let row = SemiRow {
                    algorithm: format!("{}-{}", m.name(), labeler.name()),
                    nc: nc_used,
                    mcc: q.mcc,
                    acc: q.acc,
                    f1: q.f1,
                };
                if best.as_ref().is_none_or(|b| row.mcc > b.mcc) {
                    best = Some(row);
                }
            }
            (g, best)
        })
        .collect();

    let mut rows: Vec<Vec<SemiRow>> = vec![Vec::with_capacity(cells_per_gpu); inputs.len()];
    for (g, row) in computed {
        if let Some(row) = row {
            rows[g].push(row);
        }
    }
    Table4 { gpus, rows }
}

impl Table4 {
    /// Render in the paper's layout (surviving GPUs only).
    pub fn render(&self) -> String {
        if self.rows.is_empty() || self.rows[0].is_empty() {
            return "Table 4: no surviving GPU datasets\n".to_string();
        }
        let mut out = String::new();
        out.push_str(&format!("{:<20}", "Algorithm:"));
        for gpu in &self.gpus {
            out.push_str(&format!(
                "| {:>6} {:>6} {:>6} {:>6} ",
                gpu, "MCC", "ACC", "F1"
            ));
        }
        out.push('\n');
        out.push_str(&format!("{:<20}", ""));
        for _ in &self.gpus {
            out.push_str(&format!("| {:>6} {:>6} {:>6} {:>6} ", "NC", "", "", ""));
        }
        out.push('\n');
        for r in 0..self.rows[0].len() {
            out.push_str(&format!("{:<20}", self.rows[0][r].algorithm));
            for g in 0..self.rows.len() {
                let row = &self.rows[g][r];
                out.push_str(&format!(
                    "| {:>6} {:>6.3} {:>6.3} {:>6.3} ",
                    row.nc, row.mcc, row.acc, row.f1
                ));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;

    #[test]
    fn small_run_produces_nine_rows_per_gpu() {
        let ctx = ExperimentContext::new(CorpusConfig::small(30, 2));
        let cfg = Table4Config {
            nc_candidates: vec![6],
            folds: 3,
            seed: 1,
        };
        let t = run(&ctx, &cfg);
        assert_eq!(t.rows.len(), 3);
        for gpu_rows in &t.rows {
            assert_eq!(gpu_rows.len(), 9);
            for row in gpu_rows {
                assert!((0.0..=1.0).contains(&row.acc), "{row:?}");
                assert!((-1.0..=1.0).contains(&row.mcc), "{row:?}");
            }
        }
        let r = t.render();
        assert!(r.contains("K-Means-VOTE"));
        assert!(r.contains("Mean-Shift-RF"));
        assert!(r.contains("Birch-LR"));
    }
}
