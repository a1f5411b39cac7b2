//! Benchmarking-cost accounting (the paper's Table 8).
//!
//! Table 8 has two parts: the relative cost of converting a CSR matrix to
//! each other format (normalized to the cost of one CSR SpMV), and the
//! total wall-clock hours to benchmark the corpus on each platform assuming
//! 5 seconds to read each `.mtx` file and 100 SpMV trials per format.

use crate::model::predict_times;
use crate::spec::GpuSpec;
use serde::{Deserialize, Serialize};
use spsel_features::MatrixStats;
use spsel_matrix::Format;

/// Relative cost of converting a matrix from CSR into each format,
/// expressed in units of one CSR SpMV (the normalization of Table 8).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConversionCostModel {
    /// CSR -> COO: a trivial row-pointer expansion.
    pub coo: f64,
    /// CSR -> ELL: allocate and scatter into the padded slab.
    pub ell: f64,
    /// CSR -> HYB: histogram, split decision, then two scatters.
    pub hyb: f64,
}

impl Default for ConversionCostModel {
    /// The paper's Table 8 numbers (adapted from Zhao et al. \[39\]):
    /// COO 9x, ELL 102x, HYB 147x a single CSR SpMV.
    fn default() -> Self {
        ConversionCostModel {
            coo: 9.0,
            ell: 102.0,
            hyb: 147.0,
        }
    }
}

impl ConversionCostModel {
    /// Relative cost of converting to `format` (CSR itself costs nothing).
    /// The extended formats are not part of this (serialized) model's
    /// fields; their costs come from the format registry so the two stay
    /// in lockstep by construction.
    pub fn relative(&self, format: Format) -> f64 {
        match format {
            Format::Csr => 0.0,
            Format::Coo => self.coo,
            Format::Ell => self.ell,
            Format::Hyb => self.hyb,
            Format::Bsr | Format::Sell | Format::Dia => {
                spsel_matrix::default_conversion_cost(format)
            }
        }
    }
}

/// Relative conversion cost of every format in `Format::ALL` order under
/// the default (paper) model.
pub fn conversion_cost_relative() -> [f64; 4] {
    let m = ConversionCostModel::default();
    [
        m.relative(Format::Coo),
        m.relative(Format::Csr),
        m.relative(Format::Ell),
        m.relative(Format::Hyb),
    ]
}

/// Estimate the wall-clock hours needed to benchmark a corpus on one GPU:
/// per matrix, `read_seconds` of file IO, the format conversions, and
/// `trials` timed SpMV runs per feasible format.
pub fn estimate_benchmark_hours(
    spec: &GpuSpec,
    stats: &[MatrixStats],
    ids: &[u64],
    trials: usize,
    read_seconds: f64,
) -> f64 {
    assert_eq!(stats.len(), ids.len());
    let conv = ConversionCostModel::default();
    let mut total_s = 0.0;
    for (s, &id) in stats.iter().zip(ids) {
        let t = predict_times(spec, s, id);
        if !t.any_feasible() {
            continue; // dropped from this GPU's dataset
        }
        total_s += read_seconds;
        let csr_spmv_s = t.get(Format::Csr).min(1e9) * 1e-6;
        for f in Format::ALL {
            if t.get(f).is_finite() {
                total_s += conv.relative(f) * csr_spmv_s;
                total_s += trials as f64 * t.get(f) * 1e-6;
            }
        }
    }
    total_s / 3600.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{pascal_gtx1080, turing_rtx8000, volta_v100};

    #[test]
    fn paper_conversion_ratios() {
        let r = conversion_cost_relative();
        assert_eq!(r[Format::Coo.index()], 9.0);
        assert_eq!(r[Format::Csr.index()], 0.0);
        assert_eq!(r[Format::Ell.index()], 102.0);
        assert_eq!(r[Format::Hyb.index()], 147.0);
    }

    #[test]
    fn hours_scale_with_corpus_size() {
        let s = MatrixStats::from_row_counts(10_000, 10_000, &vec![8usize; 10_000]);
        let small: Vec<MatrixStats> = vec![s.clone(); 10];
        let large: Vec<MatrixStats> = vec![s; 100];
        let ids_s: Vec<u64> = (0..10).collect();
        let ids_l: Vec<u64> = (0..100).collect();
        let spec = pascal_gtx1080();
        let h_small = estimate_benchmark_hours(&spec, &small, &ids_s, 100, 5.0);
        let h_large = estimate_benchmark_hours(&spec, &large, &ids_l, 100, 5.0);
        assert!(h_large > 9.0 * h_small);
        // Reading dominates: 100 matrices * 5 s ~ 0.14 h minimum.
        assert!(h_large >= 100.0 * 5.0 / 3600.0);
    }

    #[test]
    fn faster_gpu_needs_fewer_hours_of_kernel_time() {
        // With zero read time the kernel/conversion time dominates, and
        // Volta's 897 GB/s beats Pascal's 320 GB/s.
        let s = MatrixStats::from_row_counts(200_000, 200_000, &vec![20usize; 200_000]);
        let corpus = vec![s; 50];
        let ids: Vec<u64> = (0..50).collect();
        let hp = estimate_benchmark_hours(&pascal_gtx1080(), &corpus, &ids, 100, 0.0);
        let hv = estimate_benchmark_hours(&volta_v100(), &corpus, &ids, 100, 0.0);
        assert!(hv < hp, "Volta {hv} !< Pascal {hp}");
    }

    #[test]
    fn infeasible_matrices_are_skipped() {
        // 1.2B uniform nonzeros: COO needs 19.2 GB (fits Turing's 21.6 GB
        // budget, not Pascal's 3.6 GB). Built literally — a 300M-entry
        // row-count vector would be pointless.
        let huge = MatrixStats {
            nrows: 300_000_000,
            ncols: 300_000_000,
            nnz: 1_200_000_000,
            nnz_min: 4,
            nnz_max: 4,
            nnz_mean: 4.0,
            nnz_std: 0.0,
            sig_lower: 0.0,
            sig_higher: 0.0,
            csr_max: 128,
            hyb_ell_width: 4,
            hyb_ell_size: 1_200_000_000,
            hyb_ell_nnz: 1_200_000_000,
            hyb_coo_nnz: 0,
            diagonals: 4,
            dia_size: 1_200_000_000,
            ell_size: 1_200_000_000,
        };
        let h = estimate_benchmark_hours(
            &turing_rtx8000(),
            std::slice::from_ref(&huge),
            &[0],
            100,
            5.0,
        );
        // Turing fits it, so it is benchmarked there.
        assert!(h > 0.0);
        // On Pascal every format is out of memory: the matrix is dropped.
        let hp = estimate_benchmark_hours(&pascal_gtx1080(), &[huge], &[0], 100, 5.0);
        assert_eq!(hp, 0.0);
    }
}
