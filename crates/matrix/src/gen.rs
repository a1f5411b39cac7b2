//! Synthetic sparse matrix generators.
//!
//! These families stand in for the SuiteSparse Matrix Collection: each one
//! produces a structurally distinct sparsity pattern covering a region of
//! the statistical feature space the paper's models operate on (uniform row
//! lengths, heavy-tailed degrees, banded/diagonal structure, dense blocks,
//! and pathological skew). All generators are deterministic given a seed.

use crate::CooMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Structural family of a generated matrix; mirrors the qualitative classes
/// present in SuiteSparse (FEM meshes, graphs, network traces, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Family {
    /// Dense band around the main diagonal with partial fill.
    Banded,
    /// 5-point finite-difference stencil on a 2-D grid.
    Stencil2D,
    /// 7-point finite-difference stencil on a 3-D grid.
    Stencil3D,
    /// Uniformly random positions with near-constant row degree.
    RandomUniform,
    /// Power-law (scale-free graph) row degrees.
    PowerLaw,
    /// Dense blocks along the diagonal.
    BlockDiagonal,
    /// A handful of fully-populated off-diagonals.
    MultiDiagonal,
    /// Light rows plus a few extremely heavy rows (network-trace-like).
    RowSkewed,
    /// R-MAT/Kronecker-style graph with localized skew.
    Kronecker,
    /// Bimodal row degrees (mixture of two uniform populations).
    Bimodal,
    /// Not generated: observed at serve time and promoted into the
    /// training corpus by `spsel corpus ingest`. Deliberately absent
    /// from [`Family::ALL`], which enumerates only generators.
    Observed,
}

impl Family {
    /// All generator families in canonical order.
    pub const ALL: [Family; 10] = [
        Family::Banded,
        Family::Stencil2D,
        Family::Stencil3D,
        Family::RandomUniform,
        Family::PowerLaw,
        Family::BlockDiagonal,
        Family::MultiDiagonal,
        Family::RowSkewed,
        Family::Kronecker,
        Family::Bimodal,
    ];

    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Family::Banded => "banded",
            Family::Stencil2D => "stencil2d",
            Family::Stencil3D => "stencil3d",
            Family::RandomUniform => "random_uniform",
            Family::PowerLaw => "power_law",
            Family::BlockDiagonal => "block_diagonal",
            Family::MultiDiagonal => "multi_diagonal",
            Family::RowSkewed => "row_skewed",
            Family::Kronecker => "kronecker",
            Family::Bimodal => "bimodal",
            Family::Observed => "observed",
        }
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Positions of a matrix under construction, in row-major order: entry
/// `k` is `(rows[k], cols[k])`. Every generator writes its rows here.
#[derive(Default)]
struct Entries {
    rows: Vec<u32>,
    cols: Vec<u32>,
}

impl Entries {
    fn with_capacity(nnz: usize) -> Self {
        Entries {
            rows: Vec::with_capacity(nnz),
            cols: Vec::with_capacity(nnz),
        }
    }

    #[inline]
    fn push(&mut self, row: usize, col: usize) {
        self.rows.push(row as u32);
        self.cols.push(col as u32);
    }

    /// Draw one value per entry, in row-major order, and build the matrix.
    fn into_matrix(self, nrows: usize, ncols: usize, rng: &mut StdRng) -> CooMatrix {
        let vals = (0..self.rows.len())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        CooMatrix::from_sorted_parts(nrows, ncols, self.rows, self.cols, vals)
    }
}

/// Rows of distinct uniform columns: for each row, `degree` draws its
/// entry count `k`, then Floyd's algorithm samples `k` distinct columns
/// from `0..ncols`, which the row keeps sorted. Membership is one stamp
/// array for the whole matrix: column `v` is in row `r`'s sample iff
/// `stamp[v] == r + 1`, so no row allocates or clears anything.
fn sample_rows(
    nrows: usize,
    ncols: usize,
    rng: &mut StdRng,
    mut degree: impl FnMut(&mut StdRng) -> usize,
) -> CooMatrix {
    debug_assert!(nrows < u32::MAX as usize);
    let mut e = Entries::default();
    let mut stamp = vec![0u32; ncols];
    for r in 0..nrows {
        let k = degree(rng);
        debug_assert!(k <= ncols);
        let epoch = r as u32 + 1;
        let start = e.cols.len();
        for j in (ncols - k)..ncols {
            let t = rng.gen_range(0..=j);
            // A repeat draw takes `j`, which no earlier step could pick.
            let v = if stamp[t] == epoch { j } else { t };
            stamp[v] = epoch;
            e.cols.push(v as u32);
        }
        e.cols[start..].sort_unstable();
        e.rows.resize(e.cols.len(), r as u32);
    }
    e.into_matrix(nrows, ncols, rng)
}

/// Banded matrix: entries within `bandwidth` of the diagonal, kept with
/// probability `fill`.
pub fn banded(n: usize, bandwidth: usize, fill: f64, seed: u64) -> CooMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut e = Entries::default();
    for r in 0..n {
        let lo = r.saturating_sub(bandwidth);
        let hi = (r + bandwidth + 1).min(n);
        for c in lo..hi {
            if c == r || rng.gen_bool(fill) {
                e.push(r, c);
            }
        }
    }
    e.into_matrix(n, n, &mut rng)
}

/// 5-point stencil on a `side x side` grid (classic 2-D Laplacian pattern).
pub fn stencil2d(side: usize, seed: u64) -> CooMatrix {
    let n = side * side;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut e = Entries::with_capacity(5 * n);
    for i in 0..side {
        for j in 0..side {
            let r = i * side + j;
            if i > 0 {
                e.push(r, r - side);
            }
            if j > 0 {
                e.push(r, r - 1);
            }
            e.push(r, r);
            if j + 1 < side {
                e.push(r, r + 1);
            }
            if i + 1 < side {
                e.push(r, r + side);
            }
        }
    }
    e.into_matrix(n, n, &mut rng)
}

/// 7-point stencil on a `side^3` grid (3-D Laplacian pattern).
pub fn stencil3d(side: usize, seed: u64) -> CooMatrix {
    let n = side * side * side;
    let mut rng = StdRng::seed_from_u64(seed);
    let plane = side * side;
    let mut e = Entries::with_capacity(7 * n);
    for i in 0..side {
        for j in 0..side {
            for k in 0..side {
                let r = i * plane + j * side + k;
                if i > 0 {
                    e.push(r, r - plane);
                }
                if j > 0 {
                    e.push(r, r - side);
                }
                if k > 0 {
                    e.push(r, r - 1);
                }
                e.push(r, r);
                if k + 1 < side {
                    e.push(r, r + 1);
                }
                if j + 1 < side {
                    e.push(r, r + side);
                }
                if i + 1 < side {
                    e.push(r, r + plane);
                }
            }
        }
    }
    e.into_matrix(n, n, &mut rng)
}

/// Uniform random matrix: each row draws its degree from a narrow range
/// around `mean_degree` and places entries at uniform random columns.
pub fn random_uniform(nrows: usize, ncols: usize, mean_degree: usize, seed: u64) -> CooMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let lo = mean_degree.saturating_sub(mean_degree / 4).max(1);
    let hi = (mean_degree + mean_degree / 4).max(lo);
    sample_rows(nrows, ncols, &mut rng, |rng| {
        rng.gen_range(lo..=hi).min(ncols)
    })
}

/// Power-law matrix: row degrees follow a discrete Pareto with exponent
/// `gamma`; degree capped at `max_degree`.
pub fn power_law(
    nrows: usize,
    ncols: usize,
    min_degree: usize,
    gamma: f64,
    max_degree: usize,
    seed: u64,
) -> CooMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let cap = max_degree.min(ncols);
    sample_rows(nrows, ncols, &mut rng, |rng| {
        // Inverse-CDF sample from Pareto(min_degree, gamma - 1).
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let k = (min_degree as f64 * u.powf(-1.0 / (gamma - 1.0))) as usize;
        k.clamp(min_degree, cap).max(1)
    })
}

/// Block-diagonal matrix with dense `block x block` blocks.
pub fn block_diagonal(nblocks: usize, block: usize, fill: f64, seed: u64) -> CooMatrix {
    let n = nblocks * block;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut e = Entries::default();
    for b in 0..nblocks {
        for i in 0..block {
            let r = b * block + i;
            for j in 0..block {
                let c = b * block + j;
                if c == r || rng.gen_bool(fill) {
                    e.push(r, c);
                }
            }
        }
    }
    e.into_matrix(n, n, &mut rng)
}

/// Matrix with `ndiags` fully populated diagonals at spread-out offsets.
pub fn multi_diagonal(n: usize, ndiags: usize, seed: u64) -> CooMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    // Offsets: 0 plus symmetric pairs at pseudo-random distances.
    let mut offsets: Vec<i64> = vec![0];
    while offsets.len() < ndiags {
        let mag = rng.gen_range(1..(n as i64 / 2).max(2));
        let off = if rng.gen_bool(0.5) { mag } else { -mag };
        if !offsets.contains(&off) {
            offsets.push(off);
        }
    }
    // Distinct ascending offsets give each row ascending columns.
    offsets.sort_unstable();
    let mut e = Entries::default();
    for r in 0..n as i64 {
        for &o in &offsets {
            let c = r + o;
            if c >= 0 && c < n as i64 {
                e.push(r as usize, c as usize);
            }
        }
    }
    e.into_matrix(n, n, &mut rng)
}

/// Network-trace-like pattern: most rows have `light` nonzeros, a fraction
/// `heavy_frac` of rows have `heavy` nonzeros. Reproduces the skew that
/// makes CSR catastrophically slow (the paper's `mawi` example).
pub fn row_skewed(
    nrows: usize,
    ncols: usize,
    light: usize,
    heavy: usize,
    heavy_frac: f64,
    seed: u64,
) -> CooMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    sample_rows(nrows, ncols, &mut rng, |rng| {
        let k = if rng.gen_bool(heavy_frac) {
            heavy.min(ncols)
        } else {
            light.min(ncols)
        };
        k.max(1)
    })
}

/// Hasher for the packed `row << 32 | col` keys of [`kronecker`], which
/// the generator draws itself, so no input can pick colliding keys. The
/// table picks a bucket by the low bits of a hash and tags it with the
/// high ones, so one 128-bit multiply folds every key bit into both.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        let m = u128::from(key) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (m as u64) ^ (m >> 64) as u64;
    }
}

/// R-MAT/Kronecker-style graph: `nnz_target` edges dropped recursively into
/// quadrants with probabilities `(a, b, c, 1 - a - b - c)`, duplicates
/// discarded. `scale` gives `n = 2^scale` vertices.
pub fn kronecker(scale: u32, nnz_target: usize, a: f64, b: f64, c: f64, seed: u64) -> CooMatrix {
    let n = 1usize << scale;
    let mut rng = StdRng::seed_from_u64(seed);
    let (ab, abc) = (a + b, a + b + c);
    let mut seen: HashSet<u64, BuildHasherDefault<KeyHasher>> =
        HashSet::with_capacity_and_hasher(nnz_target * 2, Default::default());
    let mut attempts = 0usize;
    let max_attempts = nnz_target.saturating_mul(8).max(64);
    while seen.len() < nnz_target && attempts < max_attempts {
        attempts += 1;
        let mut key = 0u64;
        for level in (0..scale).rev() {
            let p: f64 = rng.gen();
            // Quadrant (0,0) below a, (0,1) below a+b, (1,0) below
            // a+b+c, else (1,1): the row bit is the second step, the
            // column bit the parity of all three.
            let (q1, q2, q3) = (u64::from(p >= a), u64::from(p >= ab), u64::from(p >= abc));
            key |= (q2 << 32 | (q1 ^ q2 ^ q3)) << level;
        }
        seen.insert(key);
    }
    let mut keys: Vec<u64> = seen.into_iter().collect();
    keys.sort_unstable();
    let mut e = Entries::with_capacity(keys.len());
    for key in keys {
        e.push((key >> 32) as usize, key as u32 as usize);
    }
    e.into_matrix(n, n, &mut rng)
}

/// Bimodal row degrees: a mixture of two uniform row-degree populations.
pub fn bimodal(
    nrows: usize,
    ncols: usize,
    degree_a: usize,
    degree_b: usize,
    frac_b: f64,
    seed: u64,
) -> CooMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    sample_rows(nrows, ncols, &mut rng, |rng| {
        let k = if rng.gen_bool(frac_b) {
            degree_b
        } else {
            degree_a
        };
        k.min(ncols).max(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpMv;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(banded(50, 3, 0.7, 9), banded(50, 3, 0.7, 9));
        assert_eq!(
            power_law(40, 40, 2, 2.5, 20, 1),
            power_law(40, 40, 2, 2.5, 20, 1)
        );
        assert_eq!(
            kronecker(6, 200, 0.57, 0.19, 0.19, 5),
            kronecker(6, 200, 0.57, 0.19, 0.19, 5)
        );
    }

    #[test]
    fn stencil2d_row_degrees() {
        let m = stencil2d(5, 0);
        assert_eq!(m.nrows(), 25);
        let counts = m.row_counts();
        // Interior rows have 5 entries, corners 3.
        assert_eq!(*counts.iter().max().unwrap(), 5);
        assert_eq!(*counts.iter().min().unwrap(), 3);
        // Stencil is structurally symmetric.
        assert_eq!(m.transpose().row_counts(), counts);
    }

    #[test]
    fn stencil3d_max_degree_seven() {
        let m = stencil3d(4, 0);
        assert_eq!(m.nrows(), 64);
        assert_eq!(*m.row_counts().iter().max().unwrap(), 7);
    }

    #[test]
    fn banded_respects_bandwidth() {
        let m = banded(30, 2, 1.0, 3);
        for (r, c, _) in m.iter() {
            assert!((r as i64 - c as i64).abs() <= 2);
        }
        // Full fill: every row has its whole band.
        assert_eq!(m.row_counts()[15], 5);
    }

    #[test]
    fn random_uniform_degree_range() {
        let m = random_uniform(100, 200, 8, 11);
        for &c in &m.row_counts() {
            assert!((6..=10).contains(&c), "degree {c} outside range");
        }
    }

    #[test]
    fn power_law_is_heavy_tailed() {
        let m = power_law(500, 500, 2, 2.0, 400, 17);
        let counts = m.row_counts();
        let max = *counts.iter().max().unwrap();
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        assert!(max as f64 > 4.0 * mean, "max {max} vs mean {mean}");
    }

    #[test]
    fn block_diagonal_stays_in_blocks() {
        let m = block_diagonal(4, 5, 0.8, 23);
        for (r, c, _) in m.iter() {
            assert_eq!(r / 5, c / 5, "entry ({r},{c}) crosses block boundary");
        }
    }

    #[test]
    fn multi_diagonal_has_expected_lanes() {
        let m = multi_diagonal(60, 5, 2);
        let offsets: std::collections::HashSet<i64> =
            m.iter().map(|(r, c, _)| c as i64 - r as i64).collect();
        assert_eq!(offsets.len(), 5);
        assert!(offsets.contains(&0));
    }

    #[test]
    fn row_skewed_has_two_populations() {
        let m = row_skewed(300, 4000, 3, 600, 0.02, 7);
        let counts = m.row_counts();
        assert!(counts.contains(&600));
        assert!(counts.iter().filter(|&&c| c == 3).count() > 200);
    }

    #[test]
    fn kronecker_shape_and_count() {
        let m = kronecker(7, 500, 0.57, 0.19, 0.19, 3);
        assert_eq!(m.nrows(), 128);
        assert!(
            m.nnz() > 300,
            "duplicate collapse too aggressive: {}",
            m.nnz()
        );
    }

    #[test]
    fn bimodal_degrees() {
        let m = bimodal(200, 500, 4, 40, 0.3, 5);
        let counts = m.row_counts();
        assert!(counts.contains(&4));
        assert!(counts.contains(&40));
        assert!(counts.iter().all(|&c| c == 4 || c == 40));
    }

    #[test]
    fn sampled_rows_are_distinct_and_sorted() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = sample_rows(50, 30, &mut rng, |_| 10);
        assert_eq!(m.row_counts(), vec![10; 50]);
        for r in 0..50 {
            let row = &m.col_indices()[r * 10..(r + 1) * 10];
            assert!(row.windows(2).all(|w| w[0] < w[1]));
            assert!(row.iter().all(|&c| c < 30));
        }
        // Degenerate: k == n
        let m = sample_rows(3, 5, &mut rng, |_| 5);
        assert_eq!(m.col_indices(), [0, 1, 2, 3, 4].repeat(3));
    }

    /// Every generator returns the oracle's matrix, values included, over
    /// a seeded sweep of shapes: one-entry rows (k = 1), full rows
    /// (k = n), far more columns than rows, and R-MAT runs that reach
    /// their target and that stop at `max_attempts`.
    #[test]
    fn every_generator_matches_the_per_row_oracle() {
        for seed in 0..24u64 {
            let s = seed as usize;
            let n = 40 + 37 * s;
            assert_eq!(
                banded(n, s % 9, 0.3 + 0.03 * s as f64, seed),
                oracle::banded(n, s % 9, 0.3 + 0.03 * s as f64, seed)
            );
            assert_eq!(stencil2d(1 + s, seed), oracle::stencil2d(1 + s, seed));
            assert_eq!(
                stencil3d(1 + s / 2, seed),
                oracle::stencil3d(1 + s / 2, seed)
            );
            for (nrows, ncols, degree) in [(n, n, 1 + s), (n, 1, 4), (7, 5, 8), (9, 20 * n, 30)] {
                assert_eq!(
                    random_uniform(nrows, ncols, degree, seed),
                    oracle::random_uniform(nrows, ncols, degree, seed)
                );
            }
            assert_eq!(
                power_law(n, 2 * n, 1 + s % 4, 2.0 + 0.05 * s as f64, n / 4, seed),
                oracle::power_law(n, 2 * n, 1 + s % 4, 2.0 + 0.05 * s as f64, n / 4, seed)
            );
            assert_eq!(
                block_diagonal(1 + s, 1 + s % 7, 0.6, seed),
                oracle::block_diagonal(1 + s, 1 + s % 7, 0.6, seed)
            );
            assert_eq!(
                multi_diagonal(n, 1 + s % 12, seed),
                oracle::multi_diagonal(n, 1 + s % 12, seed)
            );
            assert_eq!(
                row_skewed(n, 30 * n, 1 + s % 5, n / 2, 0.05, seed),
                oracle::row_skewed(n, 30 * n, 1 + s % 5, n / 2, 0.05, seed)
            );
            assert_eq!(
                row_skewed(n, 20, 1, 20, 0.3, seed),
                oracle::row_skewed(n, 20, 1, 20, 0.3, seed)
            );
            assert_eq!(
                bimodal(n, n, 1 + s % 3, n, 0.1, seed),
                oracle::bimodal(n, n, 1 + s % 3, n, 0.1, seed)
            );
            let scale = 1 + (seed % 8) as u32;
            let cells = 1usize << (2 * scale);
            assert_eq!(
                kronecker(scale, cells / 3 + 1, 0.57, 0.19, 0.19, seed),
                oracle::kronecker(scale, cells / 3 + 1, 0.57, 0.19, 0.19, seed)
            );
            if cells <= 1024 {
                // More edges than cells: the run stops at `max_attempts`.
                let m = kronecker(scale, 2 * cells, 0.57, 0.19, 0.19, seed);
                assert!(m.nnz() <= cells);
                assert_eq!(
                    m,
                    oracle::kronecker(scale, 2 * cells, 0.57, 0.19, 0.19, seed)
                );
            }
            assert_eq!(
                kronecker(scale, 50, 0.25, 0.25, 0.25, seed),
                oracle::kronecker(scale, 50, 0.25, 0.25, 0.25, seed)
            );
        }
    }

    /// The generators as they were before they wrote flat rows: a
    /// `Vec` per row, a fresh SipHash set per sampled row, and a branchy
    /// R-MAT loop deduplicating `(row, col)` tuples. Kept verbatim as the
    /// oracle the generators above must reproduce exactly.
    mod oracle {
        use crate::CooMatrix;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashSet;

        /// Sample `k` distinct values from `0..n` with Floyd's algorithm, sorted.
        fn sample_distinct<R: Rng>(rng: &mut R, k: usize, n: usize) -> Vec<u32> {
            debug_assert!(k <= n);
            let mut set = HashSet::with_capacity(k);
            for j in (n - k)..n {
                let t = rng.gen_range(0..=j);
                if !set.insert(t as u32) {
                    set.insert(j as u32);
                }
            }
            let mut v: Vec<u32> = set.into_iter().collect();
            v.sort_unstable();
            v
        }

        /// Build a COO matrix from per-row sorted distinct column lists.
        fn from_rows(
            nrows: usize,
            ncols: usize,
            rows_cols: Vec<Vec<u32>>,
            rng: &mut StdRng,
        ) -> CooMatrix {
            let nnz: usize = rows_cols.iter().map(|r| r.len()).sum();
            let mut rows = Vec::with_capacity(nnz);
            let mut cols = Vec::with_capacity(nnz);
            let mut vals = Vec::with_capacity(nnz);
            for (r, cs) in rows_cols.into_iter().enumerate() {
                for c in cs {
                    rows.push(r as u32);
                    cols.push(c);
                    vals.push(rng.gen_range(-1.0..1.0));
                }
            }
            CooMatrix::from_sorted_parts(nrows, ncols, rows, cols, vals)
        }

        pub fn banded(n: usize, bandwidth: usize, fill: f64, seed: u64) -> CooMatrix {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rows_cols = Vec::with_capacity(n);
            for r in 0..n {
                let lo = r.saturating_sub(bandwidth);
                let hi = (r + bandwidth + 1).min(n);
                let mut cs = Vec::new();
                for c in lo..hi {
                    if c == r || rng.gen_bool(fill) {
                        cs.push(c as u32);
                    }
                }
                rows_cols.push(cs);
            }
            from_rows(n, n, rows_cols, &mut rng)
        }

        pub fn stencil2d(side: usize, seed: u64) -> CooMatrix {
            let n = side * side;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rows_cols = Vec::with_capacity(n);
            for i in 0..side {
                for j in 0..side {
                    let r = i * side + j;
                    let mut cs = Vec::new();
                    if i > 0 {
                        cs.push((r - side) as u32);
                    }
                    if j > 0 {
                        cs.push((r - 1) as u32);
                    }
                    cs.push(r as u32);
                    if j + 1 < side {
                        cs.push((r + 1) as u32);
                    }
                    if i + 1 < side {
                        cs.push((r + side) as u32);
                    }
                    rows_cols.push(cs);
                }
            }
            from_rows(n, n, rows_cols, &mut rng)
        }

        pub fn stencil3d(side: usize, seed: u64) -> CooMatrix {
            let n = side * side * side;
            let mut rng = StdRng::seed_from_u64(seed);
            let plane = side * side;
            let mut rows_cols = Vec::with_capacity(n);
            for i in 0..side {
                for j in 0..side {
                    for k in 0..side {
                        let r = i * plane + j * side + k;
                        let mut cs = Vec::new();
                        if i > 0 {
                            cs.push((r - plane) as u32);
                        }
                        if j > 0 {
                            cs.push((r - side) as u32);
                        }
                        if k > 0 {
                            cs.push((r - 1) as u32);
                        }
                        cs.push(r as u32);
                        if k + 1 < side {
                            cs.push((r + 1) as u32);
                        }
                        if j + 1 < side {
                            cs.push((r + side) as u32);
                        }
                        if i + 1 < side {
                            cs.push((r + plane) as u32);
                        }
                        rows_cols.push(cs);
                    }
                }
            }
            from_rows(n, n, rows_cols, &mut rng)
        }

        pub fn random_uniform(
            nrows: usize,
            ncols: usize,
            mean_degree: usize,
            seed: u64,
        ) -> CooMatrix {
            let mut rng = StdRng::seed_from_u64(seed);
            let lo = mean_degree.saturating_sub(mean_degree / 4).max(1);
            let hi = (mean_degree + mean_degree / 4).max(lo);
            let mut rows_cols = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                let k = rng.gen_range(lo..=hi).min(ncols);
                rows_cols.push(sample_distinct(&mut rng, k, ncols));
            }
            from_rows(nrows, ncols, rows_cols, &mut rng)
        }

        pub fn power_law(
            nrows: usize,
            ncols: usize,
            min_degree: usize,
            gamma: f64,
            max_degree: usize,
            seed: u64,
        ) -> CooMatrix {
            let mut rng = StdRng::seed_from_u64(seed);
            let cap = max_degree.min(ncols);
            let mut rows_cols = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let k = (min_degree as f64 * u.powf(-1.0 / (gamma - 1.0))) as usize;
                let k = k.clamp(min_degree, cap).max(1);
                rows_cols.push(sample_distinct(&mut rng, k, ncols));
            }
            from_rows(nrows, ncols, rows_cols, &mut rng)
        }

        pub fn block_diagonal(nblocks: usize, block: usize, fill: f64, seed: u64) -> CooMatrix {
            let n = nblocks * block;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rows_cols = Vec::with_capacity(n);
            for b in 0..nblocks {
                for i in 0..block {
                    let r = b * block + i;
                    let mut cs = Vec::new();
                    for j in 0..block {
                        let c = b * block + j;
                        if c == r || rng.gen_bool(fill) {
                            cs.push(c as u32);
                        }
                    }
                    rows_cols.push(cs);
                }
            }
            from_rows(n, n, rows_cols, &mut rng)
        }

        pub fn multi_diagonal(n: usize, ndiags: usize, seed: u64) -> CooMatrix {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut offsets: Vec<i64> = vec![0];
            let mut seen: HashSet<i64> = offsets.iter().copied().collect();
            while offsets.len() < ndiags {
                let mag = rng.gen_range(1..(n as i64 / 2).max(2));
                let off = if rng.gen_bool(0.5) { mag } else { -mag };
                if seen.insert(off) {
                    offsets.push(off);
                }
            }
            let mut rows_cols = Vec::with_capacity(n);
            for r in 0..n as i64 {
                let mut cs: Vec<u32> = offsets
                    .iter()
                    .filter_map(|&o| {
                        let c = r + o;
                        (c >= 0 && c < n as i64).then_some(c as u32)
                    })
                    .collect();
                cs.sort_unstable();
                rows_cols.push(cs);
            }
            from_rows(n, n, rows_cols, &mut rng)
        }

        pub fn row_skewed(
            nrows: usize,
            ncols: usize,
            light: usize,
            heavy: usize,
            heavy_frac: f64,
            seed: u64,
        ) -> CooMatrix {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rows_cols = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                let k = if rng.gen_bool(heavy_frac) {
                    heavy.min(ncols)
                } else {
                    light.min(ncols)
                };
                rows_cols.push(sample_distinct(&mut rng, k.max(1), ncols));
            }
            from_rows(nrows, ncols, rows_cols, &mut rng)
        }

        pub fn kronecker(
            scale: u32,
            nnz_target: usize,
            a: f64,
            b: f64,
            c: f64,
            seed: u64,
        ) -> CooMatrix {
            let n = 1usize << scale;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(nnz_target * 2);
            let mut attempts = 0usize;
            let max_attempts = nnz_target.saturating_mul(8).max(64);
            while seen.len() < nnz_target && attempts < max_attempts {
                attempts += 1;
                let (mut r, mut col) = (0usize, 0usize);
                for level in (0..scale).rev() {
                    let p: f64 = rng.gen();
                    let (dr, dc) = if p < a {
                        (0, 0)
                    } else if p < a + b {
                        (0, 1)
                    } else if p < a + b + c {
                        (1, 0)
                    } else {
                        (1, 1)
                    };
                    r |= dr << level;
                    col |= dc << level;
                }
                seen.insert((r as u32, col as u32));
            }
            let mut triplets: Vec<(usize, usize, f64)> = seen
                .into_iter()
                .map(|(r, c)| (r as usize, c as usize, 0.0))
                .collect();
            triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
            for t in triplets.iter_mut() {
                t.2 = rng.gen_range(-1.0..1.0);
            }
            CooMatrix::from_triplets(n, n, &triplets).expect("kronecker edges are in bounds")
        }

        pub fn bimodal(
            nrows: usize,
            ncols: usize,
            degree_a: usize,
            degree_b: usize,
            frac_b: f64,
            seed: u64,
        ) -> CooMatrix {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rows_cols = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                let k = if rng.gen_bool(frac_b) {
                    degree_b
                } else {
                    degree_a
                };
                rows_cols.push(sample_distinct(&mut rng, k.min(ncols).max(1), ncols));
            }
            from_rows(nrows, ncols, rows_cols, &mut rng)
        }
    }
}
