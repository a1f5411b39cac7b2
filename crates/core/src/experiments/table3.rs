//! Table 3: distribution of the best sparse formats across GPUs, plus the
//! common subset.

use super::ExperimentContext;
use serde::{Deserialize, Serialize};
use spsel_gpusim::label_distribution;
use spsel_matrix::Format;

/// Table 3 contents.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3 {
    /// `per_gpu[g][f]`: matrices whose best format is `Format::ALL[f]` on
    /// `Gpu::ALL[g]`, over that GPU's full dataset.
    pub per_gpu: [[usize; 4]; 3],
    /// Dataset size per GPU.
    pub totals: [usize; 3],
    /// Same distribution restricted to the common subset.
    pub common: [[usize; 4]; 3],
    /// Common-subset size.
    pub common_total: usize,
}

/// Count label distributions per GPU and over the common subset.
pub fn run(ctx: &ExperimentContext) -> Table3 {
    let per_gpu: [[usize; 4]; 3] = std::array::from_fn(|g| label_distribution(&ctx.benches[g]));
    let common_idx = ctx.common_subset();
    // The common subset is feasible on every *active* GPU; a GPU lost to
    // an outage stays all-zero here.
    let common = std::array::from_fn(|g| {
        let results: Vec<_> = common_idx.iter().map(|&i| ctx.benches[g][i]).collect();
        label_distribution(&results)
    });
    Table3 {
        per_gpu,
        totals: per_gpu.map(|counts| counts.iter().sum()),
        common,
        common_total: common_idx.len(),
    }
}

impl Table3 {
    /// Render in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<8}{:>8}{:>8}{:>8}   | common:{:>8}{:>8}{:>8}\n",
            "", "Pascal", "Volta", "Turing", "Pascal", "Volta", "Turing"
        ));
        for f in Format::ALL {
            out.push_str(&format!("{:<8}", f.name()));
            for g in 0..3 {
                out.push_str(&format!("{:>8}", self.per_gpu[g][f.index()]));
            }
            out.push_str("   |        ");
            for g in 0..3 {
                out.push_str(&format!("{:>8}", self.common[g][f.index()]));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "{:<8}{:>8}{:>8}{:>8}   | common total: {}\n",
            "Total", self.totals[0], self.totals[1], self.totals[2], self.common_total
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;

    #[test]
    fn distributions_sum_to_totals() {
        let ctx = ExperimentContext::new(CorpusConfig::small(30, 5));
        let t = run(&ctx);
        for g in 0..3 {
            assert_eq!(t.per_gpu[g].iter().sum::<usize>(), t.totals[g]);
            assert_eq!(t.common[g].iter().sum::<usize>(), t.common_total);
        }
        let r = t.render();
        assert!(r.contains("CSR"));
        assert!(r.contains("Total"));
    }
}
