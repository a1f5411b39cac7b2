//! Table 7: the supervised classifiers under transfer, five GPU pairs x
//! five tabular models x three retraining budgets (the paper omits the
//! CNN for cost, and the Volta-to-Pascal pair for space).

use super::ExperimentContext;
use crate::share::FitPool;
use crate::speedup::SelectionQuality;
use crate::supervised::{SupervisedConfig, SupervisedModel};
use crate::transfer::{transfer_supervised, RetrainBudget, TransferInput};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use spsel_gpusim::Gpu;

/// The five transfer pairs of Table 7 in the paper's row order (Volta to
/// Pascal is omitted, as in the paper).
pub const TABLE7_PAIRS: [(Gpu, Gpu); 5] = [
    (Gpu::Turing, Gpu::Volta),
    (Gpu::Pascal, Gpu::Volta),
    (Gpu::Turing, Gpu::Pascal),
    (Gpu::Pascal, Gpu::Turing),
    (Gpu::Volta, Gpu::Turing),
];

/// Configuration of the Table 7 run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table7Config {
    /// Cross-validation folds.
    pub folds: usize,
    /// Seed.
    pub seed: u64,
    /// Use reduced model sizes (tests / smoke runs).
    pub quick: bool,
}

impl Default for Table7Config {
    fn default() -> Self {
        Table7Config {
            folds: 5,
            seed: 37,
            quick: false,
        }
    }
}

/// One row of Table 7: a model under one transfer pair at all budgets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table7Row {
    /// Model name.
    pub model: String,
    /// Quality per budget in `RetrainBudget::ALL` order.
    pub budgets: [SelectionQuality; 3],
}

/// Table 7 contents.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table7 {
    /// `(source, target, rows)` per pair.
    pub pairs: Vec<(Gpu, Gpu, Vec<Table7Row>)>,
}

/// Run the supervised transfer evaluation (pairs whose source or target
/// GPU degraded away are skipped; models whose fit fails are skipped).
///
/// All (model, pair) cells run through the parallel runtime: each cell
/// derives its work from `cfg.seed` alone and fills only its own output
/// slot, so any worker count produces the same table as a serial run.
/// Each cell evaluates its three budgets through [`transfer_supervised`]
/// — one k-fold split computation per cell, with fits drawn from a
/// shared [`FitPool`] so budgets (or cells) whose training inputs
/// coincide fit once; outputs are bit-identical to fitting every budget
/// from scratch.
pub fn run(ctx: &ExperimentContext, cfg: &Table7Config) -> Table7 {
    let pool = FitPool::new();
    let common = ctx.common_subset();
    let features = ctx.features(&common);
    let active = ctx.active_gpus();
    let mut live_pairs = Vec::new();
    for (source, target) in TABLE7_PAIRS {
        if !active.contains(&source) || !active.contains(&target) {
            eprintln!("degradation: skipping transfer {source} to {target} (GPU lost)");
            continue;
        }
        let (Ok(source_results), Ok(target_results)) =
            (ctx.results(source, &common), ctx.results(target, &common))
        else {
            continue; // common subset is feasible on active GPUs
        };
        live_pairs.push((source, target, source_results, target_results));
    }

    let mut cells = Vec::new();
    for p in 0..live_pairs.len() {
        for model in SupervisedModel::TABULAR {
            cells.push((p, model));
        }
    }
    let computed: Vec<(usize, Option<Table7Row>)> = cells
        .into_par_iter()
        .map(|(p, model)| {
            let (_, _, source_results, target_results) = &live_pairs[p];
            let input = TransferInput {
                features: &features,
                images: None,
                source: source_results,
                target: target_results,
            };
            let sup_cfg = if cfg.quick {
                SupervisedConfig::quick(model, cfg.seed)
            } else {
                SupervisedConfig::new(model, cfg.seed)
            };
            let row = match transfer_supervised(input, sup_cfg, cfg.folds, cfg.seed, &pool) {
                Ok(budgets) => Some(Table7Row {
                    model: model.name().to_string(),
                    budgets,
                }),
                Err(e) => {
                    eprintln!("degradation: skipping {} transfer: {e}", model.name());
                    None
                }
            };
            (p, row)
        })
        .collect();

    let mut pairs: Vec<(Gpu, Gpu, Vec<Table7Row>)> = live_pairs
        .iter()
        .map(|&(source, target, ..)| (source, target, Vec::new()))
        .collect();
    for (p, row) in computed {
        if let Some(row) = row {
            pairs[p].2.push(row);
        }
    }
    Table7 { pairs }
}

impl Table7 {
    /// Render in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<10}", "MLM"));
        for b in RetrainBudget::ALL {
            out.push_str(&format!(
                "|{:>7}{:>6}{:>6}{:>6}{:>6} ",
                format!("ACC-{}", b.label()),
                "F1",
                "MCC",
                "GT",
                "CSR"
            ));
        }
        out.push('\n');
        for (source, target, rows) in &self.pairs {
            out.push_str(&format!("--- {source} to {target} ---\n"));
            for row in rows {
                out.push_str(&format!("{:<10}", row.model));
                for q in &row.budgets {
                    out.push_str(&format!(
                        "|{:>7.2}{:>6.2}{:>6.2}{:>6.2}{:>6.2} ",
                        q.acc * 100.0,
                        q.f1,
                        q.mcc,
                        q.gt,
                        q.csr
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
    fn small_run_has_five_pairs_of_five_models() {
        let ctx = ExperimentContext::new(CorpusConfig::small(24, 6));
        let cfg = Table7Config {
            folds: 3,
            seed: 2,
            quick: true,
        };
        let t = run(&ctx, &cfg);
        assert_eq!(t.pairs.len(), 5);
        for (_, _, rows) in &t.pairs {
            assert_eq!(rows.len(), 5);
            for row in rows {
                for q in &row.budgets {
                    assert!((0.0..=1.0).contains(&q.acc));
                }
            }
        }
        assert!(t.render().contains("Turing to Volta"));
    }
}
