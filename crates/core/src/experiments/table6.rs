//! Table 6: local performance of the supervised classifiers (DT, RF, SVM,
//! KNN, XGBoost, CNN) on each GPU, with the GT / CSR / Threshold columns.

use super::ExperimentContext;
use crate::share::FitPool;
use crate::speedup::SelectionQuality;
use crate::supervised::{SupervisedConfig, SupervisedModel};
use crate::transfer::local_supervised;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Configuration of the Table 6 run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table6Config {
    /// Cross-validation folds.
    pub folds: usize,
    /// Seed.
    pub seed: u64,
    /// Include the CNN (requires a corpus built with images; expensive).
    pub with_cnn: bool,
    /// Use reduced model sizes (tests / smoke runs).
    pub quick: bool,
}

impl Default for Table6Config {
    fn default() -> Self {
        Table6Config {
            folds: 5,
            seed: 31,
            with_cnn: true,
            quick: false,
        }
    }
}

/// One row of Table 6.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table6Row {
    /// Model name.
    pub model: String,
    /// Quality metrics (ACC, F1, MCC, GT, CSR, Threshold).
    pub quality: SelectionQuality,
}

/// Table 6 contents: one block per surviving GPU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table6 {
    /// GPUs that contributed a block (all three unless one degraded away).
    pub gpus: Vec<String>,
    /// `rows[g]`: model rows for `gpus[g]`.
    pub rows: Vec<Vec<Table6Row>>,
}

/// Run the supervised local evaluation on every surviving GPU. Models
/// whose fit fails (e.g. the CNN on a corpus without images) are skipped
/// with a note rather than aborting the table.
///
/// All (model, GPU) cells run through the parallel runtime: each cell
/// derives its work from `cfg.seed` alone and fills only its own output
/// slot, so any worker count produces the same table as a serial run.
/// Featural fits are drawn from a shared [`FitPool`], so cells that
/// would train an identical model (same features, labels, and config)
/// fit it once; outputs are bit-identical to unpooled fits.
pub fn run(ctx: &ExperimentContext, cfg: &Table6Config) -> Table6 {
    let pool = FitPool::new();
    let models: Vec<SupervisedModel> = SupervisedModel::ALL
        .into_iter()
        .filter(|m| cfg.with_cnn || !m.needs_images())
        .collect();
    let mut gpus = Vec::new();
    let mut inputs = Vec::new();
    for gpu in ctx.active_gpus() {
        let indices = ctx.dataset(gpu);
        let features = ctx.features(&indices);
        let images = ctx.images(&indices);
        let Ok(results) = ctx.results(gpu, &indices) else {
            continue; // dataset indices are feasible by construction
        };
        gpus.push(gpu.name().to_string());
        inputs.push((gpu, features, images, results));
    }

    let mut cells = Vec::new();
    for g in 0..inputs.len() {
        for model in &models {
            cells.push((g, *model));
        }
    }
    let computed: Vec<(usize, Option<Table6Row>)> = cells
        .into_par_iter()
        .map(|(g, model)| {
            let (gpu, features, images, results) = &inputs[g];
            let sup_cfg = if cfg.quick {
                SupervisedConfig::quick(model, cfg.seed)
            } else {
                SupervisedConfig::new(model, cfg.seed)
            };
            let images_arg = model.needs_images().then_some(images.as_slice());
            match local_supervised(
                features, images_arg, results, sup_cfg, cfg.folds, cfg.seed, &pool,
            ) {
                Ok(quality) => (
                    g,
                    Some(Table6Row {
                        model: model.name().to_string(),
                        quality,
                    }),
                ),
                Err(e) => {
                    eprintln!("degradation: skipping {} on {gpu}: {e}", model.name());
                    (g, None)
                }
            }
        })
        .collect();

    let mut rows: Vec<Vec<Table6Row>> = vec![Vec::with_capacity(models.len()); inputs.len()];
    for (g, row) in computed {
        if let Some(row) = row {
            rows[g].push(row);
        }
    }
    Table6 { gpus, rows }
}

impl Table6 {
    /// Render in the paper's layout (surviving GPUs only).
    pub fn render(&self) -> String {
        if self.rows.is_empty() {
            return "Table 6: no surviving GPU datasets\n".to_string();
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10}{:>8}{:>7}{:>7}{:>7}{:>7}{:>9}\n",
            "MLM", "ACC", "F1", "MCC", "GT", "CSR", "Thresh."
        ));
        for (g, gpu) in self.gpus.iter().enumerate() {
            out.push_str(&format!("--- {gpu} ---\n"));
            for row in &self.rows[g] {
                let q = &row.quality;
                out.push_str(&format!(
                    "{:<10}{:>8.2}{:>7.2}{:>7.2}{:>7.2}{:>7.2}{:>9}\n",
                    row.model,
                    q.acc * 100.0,
                    q.f1,
                    q.mcc,
                    q.gt,
                    q.csr,
                    q.threshold
                ));
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
    fn small_run_without_cnn() {
        let ctx = ExperimentContext::new(CorpusConfig::small(24, 4));
        let cfg = Table6Config {
            folds: 3,
            seed: 1,
            with_cnn: false,
            quick: true,
        };
        let t = run(&ctx, &cfg);
        assert_eq!(t.rows.len(), 3);
        for gpu_rows in &t.rows {
            assert_eq!(gpu_rows.len(), 5);
            for row in gpu_rows {
                assert!(row.quality.gt <= 1.0 + 1e-9, "{row:?}");
                assert!(row.quality.acc > 0.2, "{row:?}");
            }
        }
        assert!(t.render().contains("XGBoost"));
    }
}
