//! The multi-pass `MatrixStats` construction that shipped before the
//! `FeatureExtractor` became the only stats walk, kept verbatim as the oracle the extractor is proved
//! bit-identical against: one `Vec` of row counts, a diagonal occupancy
//! bitmap, and a separate walk over the counts for each aggregate.
//!
//! Shared by `tests/properties.rs` and the unit tests of `extract.rs`
//! (through `#[path]`); each includer brings `CsrMatrix`, `MatrixStats`,
//! `SpMv` and `WARP_ROWS` into scope.

use super::{CsrMatrix, MatrixStats, SpMv, WARP_ROWS};
use spsel_matrix::hyb::{DEFAULT_BREAKEVEN_THRESHOLD, DEFAULT_RELATIVE_SPEED};

/// All statistics of a CSR matrix: [`legacy_from_row_counts`] plus a
/// diagonal census over the entries.
pub fn legacy_from_csr(csr: &CsrMatrix) -> MatrixStats {
    let counts = csr.row_counts();
    let mut stats = legacy_from_row_counts(csr.nrows(), csr.ncols(), &counts);

    // Diagonal census: one pass over entries, flat occupancy bitmap over
    // the `nrows + ncols - 1` possible offsets.
    let (nrows, ncols) = (csr.nrows(), csr.ncols());
    if nrows > 0 && ncols > 0 {
        let mut occupied = vec![false; nrows + ncols - 1];
        let mut diagonals = 0usize;
        for (r, c, _) in csr.iter() {
            let idx = c + nrows - 1 - r;
            if !occupied[idx] {
                occupied[idx] = true;
                diagonals += 1;
            }
        }
        stats.diagonals = diagonals;
        stats.dia_size = diagonals * nrows;
    }
    stats
}

/// The row-length-derived statistics only (diagonal census left at
/// zero).
pub fn legacy_from_row_counts(nrows: usize, ncols: usize, counts: &[usize]) -> MatrixStats {
    assert_eq!(counts.len(), nrows, "one count per row");
    let nnz: usize = counts.iter().sum();
    let mean = if nrows == 0 {
        0.0
    } else {
        nnz as f64 / nrows as f64
    };
    let nnz_min = counts.iter().copied().min().unwrap_or(0);
    let nnz_max = counts.iter().copied().max().unwrap_or(0);

    let mut var_sum = 0.0;
    let mut lower_sum = 0.0;
    let mut lower_n = 0usize;
    let mut higher_sum = 0.0;
    let mut higher_n = 0usize;
    for &c in counts {
        let d = c as f64 - mean;
        var_sum += d * d;
        if d < 0.0 {
            lower_sum += d * d;
            lower_n += 1;
        } else if d > 0.0 {
            higher_sum += d * d;
            higher_n += 1;
        }
    }
    let nnz_std = if nrows == 0 {
        0.0
    } else {
        (var_sum / nrows as f64).sqrt()
    };
    let sig_lower = if lower_n == 0 {
        0.0
    } else {
        (lower_sum / lower_n as f64).sqrt()
    };
    let sig_higher = if higher_n == 0 {
        0.0
    } else {
        (higher_sum / higher_n as f64).sqrt()
    };

    let csr_max = counts
        .chunks(WARP_ROWS)
        .map(|w| w.iter().sum::<usize>())
        .max()
        .unwrap_or(0);

    let hyb_ell_width = spsel_matrix::hyb::optimal_ell_width(
        counts,
        DEFAULT_RELATIVE_SPEED,
        DEFAULT_BREAKEVEN_THRESHOLD,
    );
    let hyb_ell_nnz: usize = counts.iter().map(|&c| c.min(hyb_ell_width)).sum();

    MatrixStats {
        nrows,
        ncols,
        nnz,
        nnz_min,
        nnz_max,
        nnz_mean: mean,
        nnz_std,
        sig_lower,
        sig_higher,
        csr_max,
        hyb_ell_width,
        hyb_ell_size: hyb_ell_width * nrows,
        hyb_ell_nnz,
        hyb_coo_nnz: nnz - hyb_ell_nnz,
        diagonals: 0,
        dia_size: 0,
        ell_size: nnz_max * nrows,
    }
}
