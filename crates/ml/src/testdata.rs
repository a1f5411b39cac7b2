//! Seeded datasets shared by the tree learners' oracle tests.

use crate::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random dataset with continuous features (ties unlikely).
pub(crate) fn random_dataset(n: usize, dim: usize, n_classes: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect())
        .collect();
    let y: Vec<usize> = x
        .iter()
        .map(|row| {
            let s: f64 = row.iter().sum();
            let noisy: f64 = s + rng.gen_range(-0.5..0.5);
            ((noisy.abs() * 1.3) as usize) % n_classes
        })
        .collect();
    Dataset::new(x, y, n_classes)
}

/// Adversarial dataset: heavy value ties (quantized features), one
/// constant feature, one near-constant feature.
pub(crate) fn tied_dataset(n: usize, n_classes: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            vec![
                (rng.gen_range(0..4) as f64) * 0.25, // heavy ties
                7.5,                                 // constant
                if i == 0 { 1.0 } else { 0.0 },      // near-constant
                (rng.gen_range(0..2) as f64),        // binary
                rng.gen_range(-1.0..1.0),            // continuous
            ]
        })
        .collect();
    let y: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n_classes)).collect();
    Dataset::new(x, y, n_classes)
}

pub(crate) fn datasets() -> Vec<(&'static str, Dataset)> {
    vec![
        ("random", random_dataset(160, 6, 4, 11)),
        ("random_binary", random_dataset(90, 3, 2, 23)),
        ("tied", tied_dataset(120, 3, 5)),
        ("tied_small", tied_dataset(13, 2, 9)),
    ]
}
