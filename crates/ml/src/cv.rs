//! Cross-validation utilities: stratified k-fold splits, matching the
//! paper's 5-fold CV protocol, and the stratified subsamples of its
//! retraining budgets.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Stratified k-fold: shuffles each class's indices with the seed, then
/// deals them round-robin into `k` folds so every fold preserves the class
/// balance. Returns `(train_indices, test_indices)` per fold.
pub fn stratified_kfold(
    y: &[usize],
    n_classes: usize,
    k: usize,
    seed: u64,
) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(k >= 2, "need at least two folds");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); n_classes];
    for (i, &label) in y.iter().enumerate() {
        per_class[label].push(i);
    }
    let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
    for class_indices in per_class.iter_mut() {
        class_indices.shuffle(&mut rng);
        for (pos, &idx) in class_indices.iter().enumerate() {
            folds[pos % k].push(idx);
        }
    }
    (0..k)
        .map(|f| {
            let test = folds[f].clone();
            let train: Vec<usize> = (0..k)
                .filter(|&g| g != f)
                .flat_map(|g| folds[g].iter().copied())
                .collect();
            (train, test)
        })
        .collect()
}

/// Stratified subsample: returns indices of approximately `frac` of the
/// samples with the class balance preserved. Used for the paper's 25% and
/// 50% retraining budgets.
pub fn stratified_subsample(y: &[usize], n_classes: usize, frac: f64, seed: u64) -> Vec<usize> {
    assert!((0.0..=1.0).contains(&frac), "fraction out of range");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); n_classes];
    for (i, &label) in y.iter().enumerate() {
        per_class[label].push(i);
    }
    let mut out = Vec::new();
    for class_indices in per_class.iter_mut() {
        class_indices.shuffle(&mut rng);
        let take = ((class_indices.len() as f64) * frac).round() as usize;
        out.extend(class_indices.iter().take(take));
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels() -> Vec<usize> {
        // 60 of class 0, 30 of class 1, 10 of class 2.
        let mut y = vec![0usize; 60];
        y.extend(vec![1; 30]);
        y.extend(vec![2; 10]);
        y
    }

    #[test]
    fn folds_partition_everything() {
        let y = labels();
        let folds = stratified_kfold(&y, 3, 5, 42);
        assert_eq!(folds.len(), 5);
        let mut seen = vec![0usize; y.len()];
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), y.len());
            for &i in test {
                seen[i] += 1;
            }
            // No overlap between train and test.
            let test_set: std::collections::HashSet<_> = test.iter().collect();
            assert!(train.iter().all(|i| !test_set.contains(i)));
        }
        // Every sample appears in exactly one test fold.
        assert!(seen.iter().all(|&s| s == 1));
    }

    #[test]
    fn folds_preserve_class_balance() {
        let y = labels();
        for (_, test) in stratified_kfold(&y, 3, 5, 0) {
            let c0 = test.iter().filter(|&&i| y[i] == 0).count();
            let c2 = test.iter().filter(|&&i| y[i] == 2).count();
            assert_eq!(c0, 12);
            assert_eq!(c2, 2);
        }
    }

    #[test]
    fn folds_are_seed_deterministic() {
        let y = labels();
        assert_eq!(stratified_kfold(&y, 3, 5, 7), stratified_kfold(&y, 3, 5, 7));
        assert_ne!(stratified_kfold(&y, 3, 5, 7), stratified_kfold(&y, 3, 5, 8));
    }

    #[test]
    fn subsample_preserves_balance() {
        let y = labels();
        let sub = stratified_subsample(&y, 3, 0.5, 3);
        let c0 = sub.iter().filter(|&&i| y[i] == 0).count();
        let c1 = sub.iter().filter(|&&i| y[i] == 1).count();
        let c2 = sub.iter().filter(|&&i| y[i] == 2).count();
        assert_eq!((c0, c1, c2), (30, 15, 5));
    }

    #[test]
    fn subsample_zero_and_full() {
        let y = labels();
        assert!(stratified_subsample(&y, 3, 0.0, 0).is_empty());
        assert_eq!(stratified_subsample(&y, 3, 1.0, 0).len(), y.len());
    }
}
