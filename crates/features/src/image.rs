//! Density-image rasterization of a sparse matrix.
//!
//! The CNN baseline encodes each matrix as a fixed-size image, as in the
//! deep-learning format-selection work the paper reimplements: the matrix
//! is divided into a `res x res` grid of cells, nonzeros are counted per
//! cell, and counts are log-compressed and normalized to `[0, 1]`.

use serde::{Deserialize, Serialize};
use spsel_matrix::{CsrMatrix, SpMv};

/// Default image resolution used by the CNN baseline.
pub const DEFAULT_RESOLUTION: usize = 32;

/// A normalized `res x res` density image of a sparse matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DensityImage {
    res: usize,
    /// Row-major pixel values in `[0, 1]`.
    pixels: Vec<f32>,
}

impl DensityImage {
    /// Rasterize a CSR matrix onto a `res x res` grid.
    pub fn from_csr(csr: &CsrMatrix, res: usize) -> Self {
        Self::from_positions(
            csr.nrows(),
            csr.ncols(),
            csr.iter().map(|(r, c, _)| (r, c)),
            res,
        )
    }

    /// Rasterize the `nrows x ncols` matrix whose stored positions
    /// `positions` yields, in any order, each once, onto a `res x res`
    /// grid.
    pub fn from_positions(
        nrows: usize,
        ncols: usize,
        positions: impl IntoIterator<Item = (usize, usize)>,
        res: usize,
    ) -> Self {
        assert!(res > 0, "resolution must be positive");
        let mut counts = vec![0u32; res * res];
        let (nrows, ncols) = (nrows.max(1), ncols.max(1));
        for (r, c) in positions {
            // Map (r, c) to a cell; the multiply-first form avoids rounding
            // bias for matrices smaller than the grid.
            let pr = (r * res) / nrows;
            let pc = (c * res) / ncols;
            counts[pr * res + pc] += 1;
        }
        let max_log = counts
            .iter()
            .map(|&c| (1.0 + c as f32).ln())
            .fold(0.0f32, f32::max);
        let pixels = counts
            .iter()
            .map(|&c| {
                if max_log <= 0.0 {
                    0.0
                } else {
                    (1.0 + c as f32).ln() / max_log
                }
            })
            .collect();
        DensityImage { res, pixels }
    }

    /// Grid resolution.
    pub fn resolution(&self) -> usize {
        self.res
    }

    /// Row-major pixel slice, values in `[0, 1]`.
    pub fn pixels(&self) -> &[f32] {
        &self.pixels
    }

    /// Pixel at grid position `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        self.pixels[row * self.res + col]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spsel_matrix::{gen, CooMatrix};

    #[test]
    fn pixels_are_normalized() {
        let csr = CsrMatrix::from(&gen::power_law(200, 200, 2, 2.0, 100, 3));
        let img = DensityImage::from_csr(&csr, 16);
        assert_eq!(img.pixels().len(), 256);
        let max = img.pixels().iter().cloned().fold(0.0f32, f32::max);
        assert!((max - 1.0).abs() < 1e-6);
        assert!(img.pixels().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn diagonal_matrix_lights_diagonal_cells() {
        let t: Vec<_> = (0..64).map(|i| (i, i, 1.0)).collect();
        let csr = CsrMatrix::from(&CooMatrix::from_triplets(64, 64, &t).unwrap());
        let img = DensityImage::from_csr(&csr, 8);
        for i in 0..8 {
            for j in 0..8 {
                if i == j {
                    assert!(img.get(i, j) > 0.0);
                } else {
                    assert_eq!(img.get(i, j), 0.0);
                }
            }
        }
    }

    #[test]
    fn empty_matrix_is_black() {
        let csr = CsrMatrix::from(&CooMatrix::zeros(10, 10));
        let img = DensityImage::from_csr(&csr, 4);
        assert!(img.pixels().iter().all(|&p| p == 0.0));
    }

    #[test]
    fn permutation_changes_image() {
        // The augmentation rationale: permuted instances give the CNN a
        // different view of the same matrix.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let coo = gen::banded(128, 2, 1.0, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let permuted = spsel_matrix::permute::random_permuted(&coo, &mut rng);
        let a = DensityImage::from_csr(&CsrMatrix::from(&coo), 16);
        let b = DensityImage::from_csr(&CsrMatrix::from(&permuted), 16);
        assert_ne!(a, b);
    }

    #[test]
    fn positions_in_any_order_give_the_csr_image() {
        let csr = CsrMatrix::from(&gen::kronecker(7, 900, 0.57, 0.19, 0.19, 4));
        let mut positions: Vec<(usize, usize)> = csr.iter().map(|(r, c, _)| (r, c)).collect();
        positions.reverse();
        let img = DensityImage::from_positions(csr.nrows(), csr.ncols(), positions, 16);
        assert_eq!(img, DensityImage::from_csr(&csr, 16));
    }

    #[test]
    fn matrix_smaller_than_grid() {
        let csr =
            CsrMatrix::from(&CooMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]).unwrap());
        let img = DensityImage::from_csr(&csr, 8);
        assert!(img.get(0, 0) > 0.0);
        assert!(img.get(4, 4) > 0.0);
    }
}
