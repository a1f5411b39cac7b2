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
    /// Otherwise a stable pass buckets the entries by row in
    /// O(nnz + nrows), and each row whose columns are then out of order
    /// is sorted in place. Once duplicates are rejected every `(row, col)`
    /// is unique, so this is exactly the order a key sort gives. The
    /// smallest repeated position is reported as a duplicate.
    ///
    /// A shape with more rows than entries is sorted by the packed key
    /// `row << 32 | col` instead, so that the extra memory stays O(nnz)
    /// whatever shape a file declares.
    pub(crate) fn from_unsorted_parts(
        nrows: usize,
        ncols: usize,
        mut rows: Vec<u32>,
        mut cols: Vec<u32>,
        mut vals: Vec<f64>,
    ) -> Result<Self> {
        let sorted = rows
            .windows(2)
            .zip(cols.windows(2))
            .all(|(r, c)| packed_key(r[0], c[0]) < packed_key(r[1], c[1]));
        if !sorted {
            if nrows <= rows.len() {
                sort_by_row_buckets(nrows, &mut rows, &mut cols, &mut vals)?;
            } else {
                sort_by_packed_key(&mut rows, &mut cols, &mut vals)?;
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

fn packed_key(r: u32, c: u32) -> u64 {
    (r as u64) << 32 | c as u64
}

/// Sort entries row-major by the packed key `row << 32 | col`; report the
/// smallest repeated position.
fn sort_by_packed_key(rows: &mut [u32], cols: &mut [u32], vals: &mut [f64]) -> Result<()> {
    let mut entries: Vec<(u64, f64)> = rows
        .iter()
        .zip(cols.iter())
        .zip(vals.iter())
        .map(|((&r, &c), &v)| (packed_key(r, c), v))
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
    Ok(())
}

/// Sort entries row-major: a stable bucket pass by row, then an in-place
/// sort of each row whose columns are out of order. Rows are visited in
/// order, so the first repeated column found is the smallest repeated
/// position. Extra memory is the `nrows + 1` offsets, one copy of the
/// columns and values, and the longest unsorted row.
fn sort_by_row_buckets(
    nrows: usize,
    rows: &mut [u32],
    cols: &mut Vec<u32>,
    vals: &mut Vec<f64>,
) -> Result<()> {
    // `next[r]` starts as row r's first slot and ends as its last + 1.
    let mut next = vec![0usize; nrows + 1];
    for &r in rows.iter() {
        next[r as usize + 1] += 1;
    }
    for r in 0..nrows {
        next[r + 1] += next[r];
    }
    let mut bucket_cols = vec![0u32; cols.len()];
    let mut bucket_vals = vec![0.0f64; vals.len()];
    for ((&r, &c), &v) in rows.iter().zip(cols.iter()).zip(vals.iter()) {
        let slot = &mut next[r as usize];
        bucket_cols[*slot] = c;
        bucket_vals[*slot] = v;
        *slot += 1;
    }
    let mut row_entries: Vec<(u32, f64)> = Vec::new();
    let mut start = 0;
    for (r, &end) in next[..nrows].iter().enumerate() {
        rows[start..end].fill(r as u32);
        let row_cols = &mut bucket_cols[start..end];
        if row_cols.windows(2).any(|w| w[0] >= w[1]) {
            let row_vals = &mut bucket_vals[start..end];
            row_entries.clear();
            row_entries.extend(row_cols.iter().copied().zip(row_vals.iter().copied()));
            row_entries.sort_unstable_by_key(|e| e.0);
            if let Some(w) = row_entries.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(MatrixError::DuplicateEntry {
                    row: r,
                    col: w[0].0 as usize,
                });
            }
            for ((c, v), &(sc, sv)) in row_cols
                .iter_mut()
                .zip(row_vals.iter_mut())
                .zip(&row_entries)
            {
                *c = sc;
                *v = sv;
            }
        }
        start = end;
    }
    *cols = bucket_cols;
    *vals = bucket_vals;
    Ok(())
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

    /// The sort `from_triplets` used before the row-bucket pass: bounds in
    /// input order, then one sort by the packed key `row << 32 | col` and
    /// the first repeated key in sorted order.
    fn packed_key_oracle(
        nrows: usize,
        ncols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<CooMatrix> {
        if let Some(&(row, col, _)) = triplets.iter().find(|t| t.0 >= nrows || t.1 >= ncols) {
            return Err(MatrixError::IndexOutOfBounds {
                row,
                col,
                nrows,
                ncols,
            });
        }
        let mut entries: Vec<(u64, f64)> = triplets
            .iter()
            .map(|&(r, c, v)| ((r as u64) << 32 | c as u64, v))
            .collect();
        entries.sort_unstable_by_key(|e| e.0);
        if let Some(w) = entries.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(MatrixError::DuplicateEntry {
                row: (w[0].0 >> 32) as usize,
                col: (w[0].0 as u32) as usize,
            });
        }
        Ok(CooMatrix::from_sorted_parts(
            nrows,
            ncols,
            entries.iter().map(|e| (e.0 >> 32) as u32).collect(),
            entries.iter().map(|e| e.0 as u32).collect(),
            entries.iter().map(|e| e.1).collect(),
        ))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(3000))]

        /// Shuffled, column-major, row-major and reversed triplets, rows
        /// whose columns alone are out of order, empty rows, duplicates,
        /// and shapes with far more rows than entries (the key-sort side
        /// of the memory bound) all give the oracle's matrix, value bits
        /// included, or its error.
        #[test]
        fn from_triplets_matches_a_packed_key_sort(shape in 0u32..4, order in 0u32..5, seed in 0u64..1 << 40) {
            use rand::seq::SliceRandom;
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (nrows, ncols, density) = match shape {
                0 => (rng.gen_range(1..30usize), rng.gen_range(1..30usize), 0.4),
                1 => (rng.gen_range(1..8usize), rng.gen_range(40..200usize), 0.5),
                2 => (rng.gen_range(50..400usize), rng.gen_range(1..6usize), 0.6),
                _ => (rng.gen_range(500..5000usize), rng.gen_range(1..50usize), 0.0005),
            };
            let mut triplets = Vec::new();
            for r in 0..nrows {
                // Every fourth row or so stays empty.
                if rng.gen_bool(0.25) {
                    continue;
                }
                for c in 0..ncols {
                    if rng.gen_bool(density) {
                        let v = if rng.gen_bool(0.1) { -0.0 } else { rng.gen_range(-4.0..4.0) };
                        triplets.push((r, c, v));
                    }
                }
            }
            match order {
                0 => {}
                1 => triplets.sort_by_key(|&(r, c, _)| (c, r)),
                2 => triplets.shuffle(&mut rng),
                3 => triplets.reverse(),
                _ => {
                    // Rows in order, columns shuffled within each row.
                    let mut start = 0;
                    while start < triplets.len() {
                        let row = triplets[start].0;
                        let len = triplets[start..].iter().take_while(|t| t.0 == row).count();
                        triplets[start..start + len].shuffle(&mut rng);
                        start += len;
                    }
                }
            }
            if rng.gen_bool(0.15) && !triplets.is_empty() {
                for _ in 0..rng.gen_range(1..3usize) {
                    let (r, c, _) = triplets[rng.gen_range(0..triplets.len())];
                    let at = rng.gen_range(0..=triplets.len());
                    triplets.insert(at, (r, c, rng.gen_range(-4.0..4.0)));
                }
            }
            let got = CooMatrix::from_triplets(nrows, ncols, &triplets);
            let want = packed_key_oracle(nrows, ncols, &triplets);
            let bits = |m: &CooMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            match (&got, &want) {
                (Ok(g), Ok(w)) => assert!(g == w && bits(g) == bits(w), "{triplets:?}"),
                _ => assert_eq!(got, want, "{triplets:?}"),
            }
        }
    }
}
