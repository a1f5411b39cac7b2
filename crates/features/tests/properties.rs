//! Property-based tests of the feature-extraction and preprocessing
//! invariants the selector relies on.

use proptest::prelude::*;
use spsel_features::{
    FeatureExtractor, FeatureId, FeatureVector, MatrixStats, MinMaxScaler, Pca, Preprocessor,
};
use spsel_matrix::io::{self, StructureRead};
use spsel_matrix::{gen, CooMatrix, CsrMatrix, SpMv};
use std::fmt::Write;

/// Random row-count vectors (the input MatrixStats is derived from).
fn arb_counts() -> impl Strategy<Value = (usize, Vec<usize>)> {
    (1usize..40).prop_flat_map(|nrows| {
        proptest::collection::vec(0usize..50, nrows).prop_map(move |c| (nrows, c))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stats_identities_hold((nrows, counts) in arb_counts()) {
        let ncols = 64usize;
        let s = MatrixStats::from_row_counts(nrows, ncols, &counts);
        prop_assert_eq!(s.nnz, counts.iter().sum::<usize>());
        prop_assert!(s.nnz_min <= s.nnz_max);
        prop_assert!(s.nnz_mean >= s.nnz_min as f64 - 1e-12);
        prop_assert!(s.nnz_mean <= s.nnz_max as f64 + 1e-12);
        // ELL slab always at least as large as nnz; HYB parts partition nnz.
        prop_assert!(s.ell_size >= s.nnz);
        prop_assert_eq!(s.hyb_ell_nnz + s.hyb_coo_nnz, s.nnz);
        prop_assert!(s.hyb_ell_size >= s.hyb_ell_nnz);
        // csr_max is between the max row and the whole matrix.
        prop_assert!(s.csr_max >= s.nnz_max);
        prop_assert!(s.csr_max <= s.nnz);
        // Fractions bounded.
        prop_assert!((0.0..=1.0).contains(&s.ell_fraction()));
        prop_assert!((0.0..=1.0).contains(&s.hyb_ell_fraction()));
    }

    #[test]
    fn feature_vector_is_finite((nrows, counts) in arb_counts()) {
        let s = MatrixStats::from_row_counts(nrows, 64, &counts);
        let fv = FeatureVector::from_stats(&s);
        for id in FeatureId::ALL {
            prop_assert!(fv.get(id).is_finite(), "{} not finite", id);
        }
        // Derived differences are consistent.
        let max_mu = fv.get(FeatureId::NnzMax) - fv.get(FeatureId::NnzMu);
        prop_assert!((fv.get(FeatureId::MaxMu) - max_mu).abs() < 1e-9);
    }

    #[test]
    fn scaler_maps_training_rows_into_unit_cube(
        rows in proptest::collection::vec(
            proptest::collection::vec(-1e6f64..1e6, 3), 1..40)
    ) {
        let scaler = MinMaxScaler::fit(&rows);
        for r in &rows {
            for v in scaler.transform(r) {
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn full_rank_pca_preserves_pairwise_distances(
        rows in proptest::collection::vec(
            proptest::collection::vec(-10.0f64..10.0, 3), 4..20)
    ) {
        // PCA with k = dim is an isometry up to centering.
        let pca = Pca::fit(&rows, 3);
        if pca.explained_variance().iter().all(|&v| v > 1e-9) {
            let d_orig = dist(&rows[0], &rows[1]);
            let z0 = pca.transform(&rows[0]);
            let z1 = pca.transform(&rows[1]);
            let d_proj = dist(&z0, &z1);
            prop_assert!((d_orig - d_proj).abs() < 1e-6 * (1.0 + d_orig));
        }
    }

    #[test]
    fn single_pass_extractor_bit_identical_on_random_patterns(csr in arb_pattern()) {
        // One extractor for every read of the case exercises scratch
        // reuse.
        let mut ex = FeatureExtractor::new();
        assert_extractor_identical(&mut ex, &csr);
        assert_sink_identical(&mut ex, &csr);
    }

    #[test]
    fn single_pass_extractor_bit_identical_on_matrix_families(seed in 0u64..10_000) {
        let s = seed as usize;
        let families = [
            // Empty and degenerate shapes.
            CsrMatrix::from(&CooMatrix::zeros(0, 0)),
            CsrMatrix::from(&CooMatrix::zeros(1 + s % 7, 0)),
            CsrMatrix::from(&CooMatrix::zeros(0, 1 + s % 7)),
            // Single row.
            CsrMatrix::from(&gen::random_uniform(1, 40 + s % 40, 6, seed)),
            // Hub rows (a few very heavy rows over a light background).
            CsrMatrix::from(&gen::row_skewed(60 + s % 60, 150, 2, 40, 0.1, seed)),
            // Banded / diagonal-dominated.
            CsrMatrix::from(&gen::banded(50 + s % 80, 3 + s % 4, 0.8, seed)),
            // Power-law degree distribution.
            CsrMatrix::from(&gen::power_law(80 + s % 80, 90, 2, 2.2, 50, seed)),
            // Uniform random.
            CsrMatrix::from(&gen::random_uniform(40 + s % 40, 60, 5, seed)),
        ];
        let mut ex = FeatureExtractor::new();
        for csr in &families {
            assert_extractor_identical(&mut ex, csr);
            assert_sink_identical(&mut ex, csr);
        }
    }

    #[test]
    fn preprocessor_embeddings_are_deterministic_and_finite(
        seeds in proptest::collection::vec(0u64..500, 5..12)
    ) {
        use spsel_matrix::{gen, CsrMatrix};
        let features: Vec<FeatureVector> = seeds
            .iter()
            .map(|&s| {
                FeatureVector::from_csr(&CsrMatrix::from(&gen::random_uniform(
                    50 + (s as usize % 100),
                    80,
                    4,
                    s,
                )))
            })
            .collect();
        let a = Preprocessor::fit(&features);
        let b = Preprocessor::fit(&features);
        for f in &features {
            let za = a.embed(f);
            prop_assert_eq!(&za, &b.embed(f));
            prop_assert!(za.iter().all(|v| v.is_finite()));
        }
    }
}

/// Random sparsity patterns: a deduplicated entry set over a random shape.
fn arb_pattern() -> impl Strategy<Value = CsrMatrix> {
    (1usize..32, 1usize..32).prop_flat_map(|(nr, nc)| {
        proptest::collection::btree_set((0..nr, 0..nc), 0..160).prop_map(move |set| {
            let triplets: Vec<(usize, usize, f64)> = set
                .iter()
                .enumerate()
                .map(|(i, &(r, c))| (r, c, 1.0 + i as f64 * 0.25))
                .collect();
            CsrMatrix::from(&CooMatrix::from_triplets(nr, nc, &triplets).unwrap())
        })
    })
}

/// Bit-exact comparison of the single-pass extractor against the legacy
/// multi-pass path: stats must be `==` and the derived feature vector
/// must match to the bit.
fn assert_extractor_identical(ex: &mut FeatureExtractor, csr: &CsrMatrix) {
    let legacy = MatrixStats::from_csr(csr);
    assert_eq!(ex.stats(csr), legacy, "stats diverge");
    let bits_new: Vec<u64> = ex
        .features(csr)
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let bits_old: Vec<u64> = FeatureVector::from_stats(&legacy)
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(bits_new, bits_old, "feature bits diverge");
}

/// Every Matrix Market header: each value kind with each symmetry.
const HEADERS: [(&str, &str); 9] = [
    ("real", "general"),
    ("integer", "general"),
    ("pattern", "general"),
    ("real", "symmetric"),
    ("integer", "symmetric"),
    ("pattern", "symmetric"),
    ("real", "skew-symmetric"),
    ("integer", "skew-symmetric"),
    ("pattern", "skew-symmetric"),
];

/// `csr` written row-major as a Matrix Market file with the given header,
/// and the matrix that file holds. A `general` file holds `csr`. A
/// mirrored file stores the entries of `csr` on or below the diagonal
/// whose mirror fits the shape, and holds those and their mirrors.
fn write_mtx(csr: &CsrMatrix, kind: &str, symmetry: &str) -> (Vec<u8>, CsrMatrix) {
    let stored: Vec<(usize, usize, f64)> = csr
        .iter()
        .filter(|&(r, c, _)| symmetry == "general" || (r >= c && r < csr.ncols()))
        .collect();
    let mut text = format!(
        "%%MatrixMarket matrix coordinate {kind} {symmetry}\n{} {} {}\n",
        csr.nrows(),
        csr.ncols(),
        stored.len()
    );
    for &(r, c, v) in &stored {
        match kind {
            "pattern" => writeln!(text, "{} {}", r + 1, c + 1),
            "integer" => writeln!(text, "{} {} {}", r + 1, c + 1, v.round()),
            _ => writeln!(text, "{} {} {:.17e}", r + 1, c + 1, v),
        }
        .expect("writing to a String");
    }
    let mut held = stored.clone();
    if symmetry != "general" {
        held.extend(
            stored
                .iter()
                .filter(|e| e.0 != e.1)
                .map(|&(r, c, v)| (c, r, v)),
        );
    }
    let held = CooMatrix::from_triplets(csr.nrows(), csr.ncols(), &held).expect("distinct");
    (text.into_bytes(), CsrMatrix::from(&held))
}

/// Bit-exact comparison of the extractor used as the sink of a Matrix
/// Market read against the legacy path on the matrix the file holds, in
/// every header: the row-major file must stream, and its stats and
/// feature bits must match.
fn assert_sink_identical(ex: &mut FeatureExtractor, csr: &CsrMatrix) {
    for (kind, symmetry) in HEADERS {
        let (text, held) = write_mtx(csr, kind, symmetry);
        let read = io::stream_matrix_market(text.as_slice(), ex).expect("valid file");
        assert_eq!(read, StructureRead::Streamed, "{kind} {symmetry}");
        let streamed = ex.finish();
        assert_eq!(
            ex.finish(),
            streamed,
            "{kind} {symmetry}: finish is not repeatable"
        );
        let legacy = MatrixStats::from_csr(&held);
        assert_eq!(streamed, legacy, "{kind} {symmetry}: stats diverge");
        let bits = |s: &MatrixStats| {
            FeatureVector::from_stats(s)
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u64>>()
        };
        assert_eq!(
            bits(&streamed),
            bits(&legacy),
            "{kind} {symmetry}: bits diverge"
        );
    }
}

#[test]
fn a_warmed_sink_reads_shrinking_shapes_identically() {
    // The largest matrix first sizes the scratch; every later, smaller
    // one must not read its stale counts, stamps or histogram, whether
    // it is streamed or walked as CSR.
    let mut ex = FeatureExtractor::new();
    let shrinking = [
        CsrMatrix::from(&gen::power_law(400, 400, 3, 2.1, 200, 1)),
        CsrMatrix::from(&gen::banded(150, 5, 0.7, 3)),
        CsrMatrix::from(&gen::random_uniform(64, 96, 6, 4)),
        CsrMatrix::from(&gen::row_skewed(40, 30, 2, 20, 0.1, 5)),
        CsrMatrix::from(&gen::stencil2d(5, 0)),
        CsrMatrix::from(&CooMatrix::zeros(3, 7)),
        CsrMatrix::from(&CooMatrix::zeros(1, 1)),
        CsrMatrix::from(&CooMatrix::zeros(2, 0)),
        CsrMatrix::from(&CooMatrix::zeros(0, 0)),
    ];
    for csr in &shrinking {
        assert_sink_identical(&mut ex, csr);
        assert_extractor_identical(&mut ex, csr);
        assert_sink_identical(&mut ex, csr);
    }
}

fn dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}
