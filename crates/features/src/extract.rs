//! Single-pass feature extraction with reusable scratch buffers: the
//! one walk that turns a matrix's structure into [`MatrixStats`].
//!
//! [`FeatureExtractor`] computes every statistic from two things only:
//! each row's entry count and the set of occupied diagonals. It gathers
//! them in one of three ways:
//!
//! * from a CSR matrix ([`FeatureExtractor::stats`], and
//!   [`MatrixStats::from_csr`] through a fresh extractor), in one walk
//!   over the row pointers and column indices;
//! * as the [`StructureSink`] of a Matrix Market read
//!   ([`spsel_matrix::io::stream_matrix_market`]), one position at a
//!   time, with no matrix built at all; [`FeatureExtractor::finish`] then
//!   gives the stats;
//! * from row counts alone ([`MatrixStats::from_row_counts`]), with no
//!   diagonal census.
//!
//! Either way the same two aggregate walks over the counts follow: one
//! for nnz, min/max, warp chunks and the HYB histogram, and one for the
//! mean-relative deviation sums, which cannot ride the first because they
//! need the mean. All scratch buffers are reused across calls and
//! cleared in O(1) with an epoch stamp, so a warmed extractor performs
//! zero heap allocations. Floating-point accumulation order matches the
//! multi-pass construction this replaced operation for operation, so the
//! result is bit-identical: `crates/features/tests/properties.rs` proves
//! it against that construction, kept as a test oracle, over random,
//! empty, single-row, hub, banded, and power-law matrices, read both
//! ways.

use crate::stats::WARP_ROWS;
use crate::MatrixStats;
use spsel_matrix::hyb::{DEFAULT_BREAKEVEN_THRESHOLD, DEFAULT_RELATIVE_SPEED};
use spsel_matrix::io::StructureSink;
use spsel_matrix::{CsrMatrix, SpMv};

/// Reusable scratch state for single-pass [`MatrixStats`] extraction.
///
/// One extractor per thread: methods take `&mut self` and reuse the
/// buffers, so a warmed extractor (one that has already seen a matrix at
/// least as large) allocates nothing.
#[derive(Debug, Default)]
pub struct FeatureExtractor {
    /// Per-row nonzero counts for the current matrix (first `nrows` live).
    counts: Vec<usize>,
    /// Row-count histogram values; `hist[c]` is live iff
    /// `hist_epoch[c] == epoch`.
    hist: Vec<usize>,
    hist_epoch: Vec<u32>,
    /// Diagonal occupancy stamps; offset `d` is occupied iff
    /// `diag_epoch[d] == epoch`.
    diag_epoch: Vec<u32>,
    /// Current generation for both epoch-stamped buffers. Bumping it
    /// invalidates every stale entry at once — the O(1) "clear".
    epoch: u32,
    /// Shape of the current matrix.
    nrows: usize,
    ncols: usize,
    /// Occupied diagonals of the current matrix so far.
    diagonals: usize,
}

impl FeatureExtractor {
    /// Fresh extractor with empty scratch (first call sizes the buffers).
    pub fn new() -> Self {
        Self::default()
    }

    /// Invalidate both epoch-stamped buffers in O(1).
    fn next_epoch(&mut self) {
        if self.epoch == u32::MAX {
            // One O(len) reset every 2^32 - 1 generations keeps stale
            // stamps from a previous generation cycle from reading as live.
            self.hist_epoch.fill(0);
            self.diag_epoch.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Start a matrix of the given shape: a new generation, room for its
    /// row counts (left as they are) and a stamp per possible diagonal.
    fn start(&mut self, nrows: usize, ncols: usize) {
        self.next_epoch();
        if self.counts.len() < nrows {
            self.counts.resize(nrows, 0);
        }
        // The `nrows + ncols - 1` possible offsets, if any.
        let offsets = if nrows > 0 && ncols > 0 {
            nrows + ncols - 1
        } else {
            0
        };
        if self.diag_epoch.len() < offsets {
            self.diag_epoch.resize(offsets, 0);
        }
        self.nrows = nrows;
        self.ncols = ncols;
        self.diagonals = 0;
    }

    /// Count the diagonal of position `(row, col)` if it is new. Without
    /// a branch: whether a diagonal is new is data, not a pattern.
    #[inline]
    fn mark_diagonal(&mut self, row: usize, col: usize) {
        let stamp = &mut self.diag_epoch[col + self.nrows - 1 - row];
        self.diagonals += usize::from(*stamp != self.epoch);
        *stamp = self.epoch;
    }

    /// Compute all statistics of `csr`, reusing this extractor's scratch.
    pub fn stats(&mut self, csr: &CsrMatrix) -> MatrixStats {
        self.start(csr.nrows(), csr.ncols());
        // One walk over the rows: each row's count, and the diagonal
        // census over its column indices.
        let row_ptr = csr.row_ptr();
        let col_idx = csr.col_idx();
        for r in 0..self.nrows {
            let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
            self.counts[r] = hi - lo;
            for &c in &col_idx[lo..hi] {
                self.mark_diagonal(r, c as usize);
            }
        }
        self.finish()
    }

    /// The statistics of the matrix gathered since it started: the
    /// aggregate walks over its row counts. After a Matrix Market read
    /// that returned [`StructureRead::Streamed`], these are the stats of
    /// the file's matrix. Calling it again gives the same stats.
    ///
    /// [`StructureRead::Streamed`]: spsel_matrix::io::StructureRead::Streamed
    pub fn finish(&mut self) -> MatrixStats {
        let (nrows, ncols) = (self.nrows, self.ncols);
        let diagonals = self.diagonals;
        // The histogram below needs a generation of its own; the census
        // that used the current one is done.
        self.next_epoch();
        let epoch = self.epoch;

        // Walk 1: every aggregate that does not depend on the mean.
        let mut nnz = 0usize;
        let mut nnz_min = usize::MAX;
        let mut nnz_max = 0usize;
        let mut csr_max = 0usize;
        let mut warp_sum = 0usize;
        for r in 0..nrows {
            let c = self.counts[r];
            nnz += c;
            nnz_min = nnz_min.min(c);
            nnz_max = nnz_max.max(c);
            warp_sum += c;
            if (r + 1) % WARP_ROWS == 0 {
                csr_max = csr_max.max(warp_sum);
                warp_sum = 0;
            }
            // Histogram bucket for the HYB split; stale entries are dead
            // because their stamp is from an earlier epoch.
            if self.hist.len() <= c {
                self.hist.resize(c + 1, 0);
                self.hist_epoch.resize(c + 1, 0);
            }
            if self.hist_epoch[c] == epoch {
                self.hist[c] += 1;
            } else {
                self.hist[c] = 1;
                self.hist_epoch[c] = epoch;
            }
        }
        if !nrows.is_multiple_of(WARP_ROWS) {
            csr_max = csr_max.max(warp_sum);
        }
        if nrows == 0 {
            nnz_min = 0;
        }
        let mean = if nrows == 0 {
            0.0
        } else {
            nnz as f64 / nrows as f64
        };

        // HYB split width straight off the histogram (CUSP's rule, same
        // arithmetic as `spsel_matrix::hyb::optimal_ell_width`).
        let hyb_ell_width = if nrows == 0 {
            0
        } else {
            let cutoff =
                ((nrows as f64 / DEFAULT_RELATIVE_SPEED) as usize).min(DEFAULT_BREAKEVEN_THRESHOLD);
            let mut count_ge = nrows;
            let mut width = 0;
            for k in 1..=nnz_max {
                count_ge -= if self.hist_epoch[k - 1] == epoch {
                    self.hist[k - 1]
                } else {
                    0
                };
                if count_ge > cutoff {
                    width = k;
                } else {
                    break;
                }
            }
            width
        };

        // Walk 2: the counts again, in row order. The deviation sums
        // need the mean, so they cannot ride walk 1; accumulation order
        // matches the multi-pass oracle in the tests exactly.
        let mut var_sum = 0.0;
        let mut lower_sum = 0.0;
        let mut lower_n = 0usize;
        let mut higher_sum = 0.0;
        let mut higher_n = 0usize;
        let mut hyb_ell_nnz = 0usize;
        for &c in &self.counts[..nrows] {
            let d = c as f64 - mean;
            var_sum += d * d;
            if d < 0.0 {
                lower_sum += d * d;
                lower_n += 1;
            } else if d > 0.0 {
                higher_sum += d * d;
                higher_n += 1;
            }
            hyb_ell_nnz += c.min(hyb_ell_width);
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
            diagonals,
            dia_size: diagonals * nrows,
            ell_size: nnz_max * nrows,
        }
    }

    /// The statistics of a matrix known only by its row counts: the
    /// walks of [`Self::finish`] over `counts`, with no diagonal census
    /// (`diagonals` and `dia_size` are zero).
    pub(crate) fn row_count_stats(&mut self, ncols: usize, counts: &[usize]) -> MatrixStats {
        self.counts.clear();
        self.counts.extend_from_slice(counts);
        self.nrows = counts.len();
        self.ncols = ncols;
        self.diagonals = 0;
        self.finish()
    }
}

/// The extractor as the sink of a Matrix Market read: each position adds
/// to its row's count and stamps its diagonal. Scratch is sized per
/// declared row and column in [`StructureSink::begin`], which accepts
/// every shape; a caller that must bound that memory declines large
/// shapes in a sink of its own that wraps this one.
impl StructureSink for FeatureExtractor {
    fn begin(&mut self, nrows: usize, ncols: usize) -> bool {
        self.start(nrows, ncols);
        self.counts[..nrows].fill(0);
        true
    }

    #[inline]
    fn position(&mut self, row: usize, col: usize) {
        self.counts[row] += 1;
        self.mark_diagonal(row, col);
    }
}

/// The multi-pass oracle, shared with `tests/properties.rs`.
#[cfg(test)]
#[path = "../tests/support/legacy.rs"]
mod legacy;

#[cfg(test)]
mod tests {
    use super::legacy::{legacy_from_csr, legacy_from_row_counts};
    use super::*;
    use spsel_matrix::gen;

    #[test]
    fn matches_legacy_path_on_generators() {
        let mut ex = FeatureExtractor::new();
        let matrices = [
            CsrMatrix::from(&gen::stencil2d(12, 0)),
            CsrMatrix::from(&gen::power_law(200, 180, 2, 2.3, 90, 7)),
            CsrMatrix::from(&gen::banded(150, 5, 0.7, 3)),
            CsrMatrix::from(&gen::random_uniform(64, 96, 6, 4)),
        ];
        for csr in &matrices {
            let legacy = legacy_from_csr(csr);
            assert_eq!(ex.stats(csr), legacy);
            let counts = csr.row_counts();
            let rows = legacy_from_row_counts(csr.nrows(), csr.ncols(), &counts);
            assert_eq!(ex.row_count_stats(csr.ncols(), &counts), rows);
        }
    }

    #[test]
    fn scratch_reuse_across_shrinking_matrices() {
        // A large matrix warms the scratch; smaller ones after it must
        // not read stale histogram or diagonal stamps.
        let mut ex = FeatureExtractor::new();
        let big = CsrMatrix::from(&gen::power_law(400, 400, 3, 2.1, 200, 1));
        assert_eq!(ex.stats(&big), legacy_from_csr(&big));
        let small = CsrMatrix::from(&gen::stencil2d(5, 0));
        assert_eq!(ex.stats(&small), legacy_from_csr(&small));
        let tiny = CsrMatrix::from(&spsel_matrix::CooMatrix::zeros(1, 1));
        assert_eq!(ex.stats(&tiny), legacy_from_csr(&tiny));
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let mut ex = FeatureExtractor::new();
        for coo in [
            spsel_matrix::CooMatrix::zeros(0, 0),
            spsel_matrix::CooMatrix::zeros(3, 0),
            spsel_matrix::CooMatrix::zeros(0, 3),
            spsel_matrix::CooMatrix::zeros(4, 4),
        ] {
            let csr = CsrMatrix::from(&coo);
            assert_eq!(ex.stats(&csr), legacy_from_csr(&csr));
        }
    }
}
