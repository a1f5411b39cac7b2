//! Coordinate (COO) format: explicit `(row, col, value)` triplets.
//!
//! COO stores the matrix in three dense arrays of length `nnz`. It is the
//! interchange format of this crate: every other format converts to and from
//! COO, and the COO sequential kernel is the reference implementation that
//! all other kernels are validated against.

use crate::{MatrixError, Result, SpMv};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Sparse matrix in coordinate format with triplets sorted row-major.
///
/// Invariants (enforced by all constructors):
/// * `rows`, `cols`, `vals` have identical length;
/// * triplets are sorted by `(row, col)` and contain no duplicates;
/// * all indices are in bounds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// Build from unsorted triplets. Sorts row-major and validates bounds
    /// and duplicates.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self> {
        let mut rows = Vec::with_capacity(triplets.len());
        let mut cols = Vec::with_capacity(triplets.len());
        let mut vals = Vec::with_capacity(triplets.len());
        for &(r, c, v) in triplets {
            if r >= nrows || c >= ncols {
                return Err(MatrixError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    nrows,
                    ncols,
                });
            }
            rows.push(r as u32);
            cols.push(c as u32);
            vals.push(v);
        }
        Self::from_unsorted_parts(nrows, ncols, rows, cols, vals)
    }

    /// Build from in-bounds triplet arrays in any order: sort row-major and
    /// reject duplicates. The one sort-and-validate routine behind
    /// [`CooMatrix::from_triplets`] and the Matrix Market reader.
    ///
    /// Arrays that already arrive strictly row-major (what
    /// [`crate::io::write_matrix_market`] emits) are taken as they are.
    /// Otherwise entries are sorted by the packed key `row << 32 | col`,
    /// and the smallest repeated position is reported as a duplicate.
    pub(crate) fn from_unsorted_parts(
        nrows: usize,
        ncols: usize,
        mut rows: Vec<u32>,
        mut cols: Vec<u32>,
        mut vals: Vec<f64>,
    ) -> Result<Self> {
        let key = |r: u32, c: u32| (r as u64) << 32 | c as u64;
        let sorted = rows
            .windows(2)
            .zip(cols.windows(2))
            .all(|(r, c)| key(r[0], c[0]) < key(r[1], c[1]));
        if !sorted {
            let mut entries: Vec<(u64, f64)> = rows
                .iter()
                .zip(&cols)
                .zip(&vals)
                .map(|((&r, &c), &v)| (key(r, c), v))
                .collect();
            entries.sort_unstable_by_key(|e| e.0);
            if let Some(w) = entries.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(MatrixError::DuplicateEntry {
                    row: (w[0].0 >> 32) as usize,
                    col: (w[0].0 as u32) as usize,
                });
            }
            for (i, &(k, v)) in entries.iter().enumerate() {
                rows[i] = (k >> 32) as u32;
                cols[i] = k as u32;
                vals[i] = v;
            }
        }
        Ok(Self::from_sorted_parts(nrows, ncols, rows, cols, vals))
    }

    /// Build from triplet arrays that are already sorted row-major with no
    /// duplicates. Used by conversions that construct entries in order.
    ///
    /// Debug assertions re-check the invariant; release builds trust the
    /// caller, keeping conversions O(nnz).
    pub(crate) fn from_sorted_parts(
        nrows: usize,
        ncols: usize,
        rows: Vec<u32>,
        cols: Vec<u32>,
        vals: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(rows.len(), cols.len());
        debug_assert_eq!(rows.len(), vals.len());
        debug_assert!(rows
            .iter()
            .zip(&cols)
            .all(|(&r, &c)| (r as usize) < nrows && (c as usize) < ncols));
        debug_assert!(rows
            .windows(2)
            .zip(cols.windows(2))
            .all(|(rw, cw)| (rw[0], cw[0]) < (rw[1], cw[1])));
        CooMatrix {
            nrows,
            ncols,
            rows,
            cols,
            vals,
        }
    }

    /// An empty matrix with the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Row indices of the stored entries (sorted, may repeat).
    pub fn row_indices(&self) -> &[u32] {
        &self.rows
    }

    /// Column indices of the stored entries.
    pub fn col_indices(&self) -> &[u32] {
        &self.cols
    }

    /// Values of the stored entries.
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Iterate `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(&self.vals)
            .map(|((&r, &c), &v)| (r as usize, c as usize, v))
    }

    /// Dense representation; intended for tests on small matrices.
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; self.ncols]; self.nrows];
        for (r, c, v) in self.iter() {
            d[r][c] = v;
        }
        d
    }

    /// Number of nonzeros in each row, in O(nrows + nnz).
    pub fn row_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nrows];
        for &r in &self.rows {
            counts[r as usize] += 1;
        }
        counts
    }

    /// Transpose (swaps rows/cols and re-sorts).
    pub fn transpose(&self) -> CooMatrix {
        let triplets: Vec<(usize, usize, f64)> = self.iter().map(|(r, c, v)| (c, r, v)).collect();
        CooMatrix::from_triplets(self.ncols, self.nrows, &triplets)
            .expect("transpose preserves validity")
    }
}

impl SpMv for CooMatrix {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Reference kernel: scatter each triplet's contribution.
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.check_dims(x, y).unwrap();
        y.fill(0.0);
        for i in 0..self.vals.len() {
            y[self.rows[i] as usize] += self.vals[i] * x[self.cols[i] as usize];
        }
    }

    /// Parallel kernel: segmented reduction over row-sorted triplets.
    ///
    /// The triplet array is split into chunks; each chunk accumulates its
    /// rows independently and chunk-boundary rows are combined afterwards,
    /// mirroring the structure of GPU segmented-scan COO kernels.
    fn spmv_par(&self, x: &[f64], y: &mut [f64]) {
        self.check_dims(x, y).unwrap();
        let n = self.vals.len();
        if n == 0 {
            y.fill(0.0);
            return;
        }
        let nthreads = rayon::current_num_threads().max(1);
        let chunk = n.div_ceil(nthreads);
        // Each chunk produces (first_row, first_sum, partials for interior rows).
        let partials: Vec<(usize, Vec<(usize, f64)>)> = (0..n)
            .step_by(chunk)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|start| {
                let end = (start + chunk).min(n);
                let mut acc: Vec<(usize, f64)> = Vec::new();
                let mut cur_row = self.rows[start] as usize;
                let mut sum = 0.0;
                for i in start..end {
                    let r = self.rows[i] as usize;
                    if r != cur_row {
                        acc.push((cur_row, sum));
                        cur_row = r;
                        sum = 0.0;
                    }
                    sum += self.vals[i] * x[self.cols[i] as usize];
                }
                acc.push((cur_row, sum));
                (start, acc)
            })
            .collect();
        y.fill(0.0);
        for (_, acc) in partials {
            for (r, s) in acc {
                y[r] += s;
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        // Two u32 index arrays plus one f64 value array.
        self.vals.len() * (4 + 4 + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooMatrix {
        CooMatrix::from_triplets(3, 4, &[(2, 0, 5.0), (0, 1, 2.0), (0, 3, 3.0), (1, 2, -1.0)])
            .unwrap()
    }

    #[test]
    fn triplets_are_sorted() {
        let m = sample();
        let t: Vec<_> = m.iter().collect();
        assert_eq!(t, vec![(0, 1, 2.0), (0, 3, 3.0), (1, 2, -1.0), (2, 0, 5.0)]);
    }

    #[test]
    fn rejects_out_of_bounds() {
        let err = CooMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).unwrap_err();
        assert!(matches!(err, MatrixError::IndexOutOfBounds { .. }));
    }

    #[test]
    fn rejects_duplicates() {
        let err = CooMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0)]).unwrap_err();
        assert!(matches!(
            err,
            MatrixError::DuplicateEntry { row: 0, col: 0 }
        ));
    }

    #[test]
    fn spmv_matches_dense() {
        let m = sample();
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y = [0.0; 3];
        m.spmv(&x, &mut y);
        assert_eq!(y, [2.0 * 2.0 + 3.0 * 4.0, -3.0, 5.0]);
    }

    #[test]
    fn spmv_par_matches_seq() {
        let m = sample();
        let x = [1.0, 2.0, 3.0, 4.0];
        let (mut y1, mut y2) = ([0.0; 3], [0.0; 3]);
        m.spmv(&x, &mut y1);
        m.spmv_par(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn spmv_par_empty_matrix() {
        let m = CooMatrix::zeros(3, 3);
        let x = [1.0; 3];
        let mut y = [9.0; 3];
        m.spmv_par(&x, &mut y);
        assert_eq!(y, [0.0; 3]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn row_counts() {
        assert_eq!(sample().row_counts(), vec![2, 1, 1]);
    }

    #[test]
    #[should_panic]
    fn spmv_panics_on_bad_x() {
        let m = sample();
        let mut y = [0.0; 3];
        m.spmv(&[1.0; 3], &mut y);
    }

    #[test]
    fn memory_accounting() {
        assert_eq!(sample().memory_bytes(), 4 * 16);
    }
}
