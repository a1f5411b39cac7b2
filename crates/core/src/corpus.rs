//! The synthetic matrix corpus standing in for the SuiteSparse collection.
//!
//! The paper benchmarks 1929 SuiteSparse matrices (after dropping matrices
//! that exceed GPU memory or that CUSP cannot convert to ELL) plus
//! row/column-permuted copies used to augment the CNN training set. This
//! module generates a corpus with the same roles: ten structural families
//! whose parameters are sampled from wide, seeded distributions, filtered
//! by the same CUSP ELL-conversion rule, with permuted augmentation copies.
//!
//! A record needs only a matrix's row counts, its occupied diagonals and,
//! with images, its per-cell counts, so records are built straight from
//! the positions a generator returns. Each base matrix is generated once
//! and walked by one [`FeatureExtractor`] pass, the sink the streamed
//! Matrix Market read feeds; its stats decide the CUSP ELL rule. A
//! permuted copy draws its row and column permutations and feeds the
//! base's positions through them to the same extractor, so no copy, CSR
//! or sort is ever built. Density images count cells from the same
//! positions. The base matrix is dropped once its records are made, so
//! corpus construction is cheap in memory.

use crate::cache::{Cache, SHARD_RECORDS};
use crate::error::{CoreError, CoreResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use spsel_features::{DensityImage, FeatureExtractor, FeatureVector, MatrixStats};
use spsel_gpusim::{
    benchmark_corpus, measure_corpus, BenchResult, CorpusBench, FaultConfig, Gpu, TrialPolicy,
};
use spsel_matrix::gen::{self, Family};
use spsel_matrix::io::StructureSink;
use spsel_matrix::permute::Permutation;
use spsel_matrix::{CooMatrix, Format, SpMv};

/// Slack term of CUSP's ELL conversion rule (it tolerates a small absolute
/// slab overhead even when the relative blow-up is large).
pub const CUSP_ELL_SLACK: usize = 512 * 1024;

/// CUSP refuses to build an ELL structure whose padded slab exceeds
/// `3 * nnz + slack` cells; the paper drops such matrices, and so do we.
pub fn cusp_ell_feasible(stats: &MatrixStats) -> bool {
    stats.ell_size <= 3 * stats.nnz + CUSP_ELL_SLACK
}

/// Configuration of the synthetic corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Number of base (non-augmented) matrices to keep.
    pub n_base: usize,
    /// Permuted copies derived from each base matrix.
    pub augment_copies: usize,
    /// Master seed.
    pub seed: u64,
    /// Whether to rasterize density images (needed by the CNN baseline).
    pub with_images: bool,
    /// Density-image resolution.
    pub image_resolution: usize,
    /// Multiplier on matrix dimensions: 1.0 reproduces the paper-scale
    /// corpus; tests use small values.
    pub size_scale: f64,
}

impl CorpusConfig {
    /// Paper-scale corpus: 1929 base matrices, 4 permuted copies each.
    pub fn paper() -> Self {
        CorpusConfig {
            n_base: 1929,
            augment_copies: 4,
            seed: 0xC0FFEE,
            with_images: false,
            image_resolution: 32,
            size_scale: 1.0,
        }
    }

    /// Small corpus for tests and quick runs.
    pub fn small(n_base: usize, seed: u64) -> Self {
        CorpusConfig {
            n_base,
            augment_copies: 1,
            seed,
            with_images: false,
            image_resolution: 16,
            size_scale: 0.05,
        }
    }

    /// Enable density images.
    pub fn with_images(mut self, resolution: usize) -> Self {
        self.with_images = true;
        self.image_resolution = resolution;
        self
    }
}

/// Stable identifier of the `copy`-th record derived from base matrix
/// `base_index`. Base records keep their base index; augmentation copy
/// `c ≥ 1` is `(c << 32) | base_index`. Unlike the pre-v2 scheme
/// (`base + copy * n_base`), this never depends on the corpus size, so
/// the id — and the benchmark noise it seeds — is shared by every corpus
/// config in the same generator family.
pub fn record_id(base_index: usize, copy: usize) -> u64 {
    ((copy as u64) << 32) | base_index as u64
}

/// One corpus entry: everything the experiments need, matrix dropped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixRecord {
    /// Stable identifier (seeds the benchmark noise).
    pub id: u64,
    /// Structural family of the base matrix.
    pub family: Family,
    /// Index of the base matrix this record derives from (augmented copies
    /// share it; used to keep CV splits honest if needed).
    pub base_index: usize,
    /// Whether this record is a permuted augmentation copy.
    pub augmented: bool,
    /// Raw structural statistics.
    pub stats: MatrixStats,
    /// Table 1 features.
    pub features: FeatureVector,
    /// Density image (present iff the config asked for images).
    pub image: Option<DensityImage>,
}

/// The corpus: records plus per-GPU ground-truth benchmark results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Corpus {
    /// All records (base + augmented), in generation order.
    pub records: Vec<MatrixRecord>,
    config: CorpusConfig,
}

/// Log-uniform sample in `[lo, hi]`.
fn log_uniform<R: Rng>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    (rng.gen_range(lo.ln()..=hi.ln())).exp()
}

/// Generate the base matrix for index `i`.
fn generate_base(i: usize, cfg: &CorpusConfig) -> (Family, CooMatrix) {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (i as u64).wrapping_mul(0x9e37_79b9));
    let sc = cfg.size_scale;
    let szu = |rng: &mut StdRng, lo: f64, hi: f64| -> usize {
        (log_uniform(rng, lo * sc, hi * sc)).round().max(8.0) as usize
    };
    // Family mix: roughly one third regular (ELL-friendly), two thirds
    // irregular, mirroring the balance of SuiteSparse that produces the
    // paper's CSR-dominated label distribution.
    let roll: f64 = rng.gen();
    let family = match roll {
        r if r < 0.08 => Family::Stencil2D,
        r if r < 0.14 => Family::Stencil3D,
        r if r < 0.25 => Family::Banded,
        r if r < 0.30 => Family::MultiDiagonal,
        r if r < 0.42 => Family::RandomUniform,
        r if r < 0.58 => Family::PowerLaw,
        r if r < 0.68 => Family::Kronecker,
        r if r < 0.76 => Family::BlockDiagonal,
        r if r < 0.90 => Family::Bimodal,
        _ => Family::RowSkewed,
    };
    let seed: u64 = rng.gen();
    let m = match family {
        Family::Stencil2D => {
            let side = szu(&mut rng, 20.0, 300.0);
            gen::stencil2d(side, seed)
        }
        Family::Stencil3D => {
            let side = szu(&mut rng, 8.0, 45.0).max(4);
            gen::stencil3d(side, seed)
        }
        Family::Banded => {
            let n = szu(&mut rng, 400.0, 80_000.0);
            let bandwidth = rng.gen_range(1..=12);
            let fill = rng.gen_range(0.35..1.0);
            gen::banded(n, bandwidth, fill, seed)
        }
        Family::MultiDiagonal => {
            let n = szu(&mut rng, 500.0, 60_000.0);
            let ndiags = rng.gen_range(3..=25.min(n / 4).max(3));
            gen::multi_diagonal(n, ndiags, seed)
        }
        Family::RandomUniform => {
            let n = szu(&mut rng, 300.0, 60_000.0);
            let degree = log_uniform(&mut rng, 3.0, 80.0) as usize;
            gen::random_uniform(n, n, degree.max(2).min(n / 2).max(1), seed)
        }
        Family::PowerLaw => {
            let n = szu(&mut rng, 500.0, 60_000.0);
            let gamma = rng.gen_range(2.0..3.2);
            let min_deg = rng.gen_range(1..=4);
            let max_deg = (n / 8).clamp(8, 4000);
            gen::power_law(n, n, min_deg, gamma, max_deg, seed)
        }
        Family::Kronecker => {
            let scale = rng.gen_range(9..=16.min((16.0 * sc.max(0.4)) as u32).max(9));
            let n = 1usize << scale;
            let edge_factor = log_uniform(&mut rng, 4.0, 24.0);
            let nnz_target = ((n as f64 * edge_factor) as usize).min(1_500_000);
            gen::kronecker(scale, nnz_target, 0.57, 0.19, 0.19, seed)
        }
        Family::BlockDiagonal => {
            let block = rng.gen_range(4..=48);
            let nblocks = szu(&mut rng, 10.0, 2000.0).max(2);
            let fill = rng.gen_range(0.5..1.0);
            gen::block_diagonal(nblocks, block, fill, seed)
        }
        Family::Bimodal => {
            let n = szu(&mut rng, 500.0, 60_000.0);
            let a = rng.gen_range(2..=8);
            let b = rng.gen_range(20..=120.min(n / 4).max(21));
            let frac = rng.gen_range(0.05..0.45);
            gen::bimodal(n, n, a, b, frac, seed)
        }
        Family::RowSkewed => {
            let n = szu(&mut rng, 2_000.0, 120_000.0);
            let light = rng.gen_range(2..=6);
            let heavy = ((n as f64) * rng.gen_range(0.02..0.5)) as usize;
            let heavy_frac = rng.gen_range(0.0005..0.01);
            gen::row_skewed(n, n, light, heavy.max(light + 1), heavy_frac, seed)
        }
        // Observed records come from serve-time ingest, never from the
        // generator; the family roll above cannot produce this arm.
        Family::Observed => unreachable!("Observed is not a generator family"),
    };
    (family, m)
}

/// The record of one matrix of candidate `gen_index`, from its shape and
/// its stored positions, which `positions` yields in any order, each
/// once: one extractor pass for the stats, one more for the density
/// image when the config asks for it. The id is set, and the base index
/// fixed, once the shard knows how many earlier candidates passed.
fn record_from<I: Iterator<Item = (usize, usize)>>(
    ex: &mut FeatureExtractor,
    family: Family,
    gen_index: usize,
    augmented: bool,
    (nrows, ncols): (usize, usize),
    positions: impl Fn() -> I,
    cfg: &CorpusConfig,
) -> MatrixRecord {
    // The extractor accepts every shape.
    ex.begin(nrows, ncols);
    for (r, c) in positions() {
        ex.position(r, c);
    }
    let stats = ex.finish();
    let image = cfg
        .with_images
        .then(|| DensityImage::from_positions(nrows, ncols, positions(), cfg.image_resolution));
    MatrixRecord {
        id: 0,
        family,
        base_index: gen_index,
        augmented,
        features: FeatureVector::from_stats(&stats),
        stats,
        image,
    }
}

/// The records of generation candidate `gen_index`: its base matrix and
/// `cfg.augment_copies` row/column-permuted copies, or `None` when the
/// base is empty or fails the CUSP ELL rule.
fn candidate_records(gen_index: usize, cfg: &CorpusConfig) -> Option<Vec<MatrixRecord>> {
    let (family, m) = generate_base(gen_index, cfg);
    let shape = (m.nrows(), m.ncols());
    let positions = || {
        m.row_indices()
            .iter()
            .zip(m.col_indices())
            .map(|(&r, &c)| (r as usize, c as usize))
    };
    let mut ex = FeatureExtractor::new();
    let base = record_from(&mut ex, family, gen_index, false, shape, positions, cfg);
    if !cusp_ell_feasible(&base.stats) || base.stats.nnz == 0 {
        return None;
    }
    let mut out = Vec::with_capacity(1 + cfg.augment_copies);
    out.push(base);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA06 ^ (gen_index as u64) << 20);
    for _ in 0..cfg.augment_copies {
        // The draws of `permute::random_permuted`: rows, then columns.
        let rp = Permutation::random(shape.0, &mut rng);
        let cp = Permutation::random(shape.1, &mut rng);
        let permuted = || positions().map(|(r, c)| (rp.apply(r), cp.apply(c)));
        out.push(record_from(
            &mut ex, family, gen_index, true, shape, permuted, cfg,
        ));
    }
    Some(out)
}

/// Shard plan of a built corpus: for every record shard consumed, the
/// ids and stats of *all* its records (including those past `n_base`),
/// so benchmark caching operates on whole shards and overlapping corpus
/// sizes share benchmark cells record-for-record.
#[derive(Debug, Clone, Default)]
pub struct CorpusPlan {
    /// Per-shard record manifests, in shard order.
    pub shards: Vec<ShardRecords>,
}

/// Manifest of one record shard: everything benchmarking needs.
#[derive(Debug, Clone)]
pub struct ShardRecords {
    /// Shard index within the generator family.
    pub index: usize,
    /// Record ids, in generation order.
    pub ids: Vec<u64>,
    /// Matching structural stats.
    pub stats: Vec<MatrixStats>,
}

impl Corpus {
    /// Build the corpus without a cache; see [`Corpus::build_cached`].
    pub fn build(cfg: CorpusConfig) -> Corpus {
        Self::build_cached(cfg, &Cache::disabled()).0
    }

    /// Build the corpus: generate base matrices (skipping candidates that
    /// fail the CUSP ELL rule, as the paper does), then derive permuted
    /// augmentation copies.
    ///
    /// Generation walks fixed-size shards of candidates; each shard is
    /// loaded from `cache` when a valid artifact exists and generated in
    /// parallel (then stored back) otherwise. Candidates are
    /// deterministic functions of their generation index and shards are
    /// always materialized whole, so the records — ids, base indices,
    /// stats — are identical whichever mix of cached and fresh shards a
    /// build consumes, and identical across corpus sizes on the shared
    /// prefix. Each kept matrix is reduced to its records (stats,
    /// features, image) and dropped before the next shard, so peak
    /// memory stays at O(threads) matrices instead of the whole corpus
    /// (which would be tens of GB at paper scale).
    ///
    /// Returns the corpus plus the [`CorpusPlan`] listing every shard
    /// record (including overgenerated ones past `n_base`) for shard-
    /// granular benchmark caching.
    pub fn build_cached(cfg: CorpusConfig, cache: &Cache) -> (Corpus, CorpusPlan) {
        let mut records: Vec<MatrixRecord> =
            Vec::with_capacity(cfg.n_base * (1 + cfg.augment_copies));
        let mut plan = CorpusPlan::default();
        // Filter-passing candidates seen so far, across all shards: the
        // running count assigns base indices (and therefore ids) without
        // any reference to n_base.
        let mut passing = 0usize;
        let mut shard = 0usize;
        while passing < cfg.n_base {
            let groups = cache
                .load_record_shard(&cfg, shard, passing)
                .unwrap_or_else(|| {
                    let groups = Self::generate_shard(&cfg, shard, passing);
                    cache.store_record_shard(&cfg, shard, &groups);
                    groups
                });
            let mut ids = Vec::new();
            let mut stats = Vec::new();
            for group in groups.iter().flatten() {
                for r in group {
                    ids.push(r.id);
                    stats.push(r.stats.clone());
                }
                if passing < cfg.n_base {
                    records.extend(group.iter().cloned());
                }
                passing += 1;
            }
            plan.shards.push(ShardRecords {
                index: shard,
                ids,
                stats,
            });
            shard += 1;
        }

        // Base records first, copies after, mirroring the previous layout
        // (stable sort preserves generation order within the groups).
        records.sort_by_key(|r| (r.augmented, r.base_index));
        (
            Corpus {
                records,
                config: cfg,
            },
            plan,
        )
    }

    /// Generate one whole shard of candidates. `base_offset` is the
    /// filter-passing count of all earlier shards; it fixes the base
    /// indices and ids of this shard's records.
    fn generate_shard(
        cfg: &CorpusConfig,
        shard: usize,
        base_offset: usize,
    ) -> Vec<Option<Vec<MatrixRecord>>> {
        let start = shard * SHARD_RECORDS;
        let mut groups: Vec<Option<Vec<MatrixRecord>>> = (start..start + SHARD_RECORDS)
            .into_par_iter()
            .map(|gen_index| candidate_records(gen_index, cfg))
            .collect();
        for (base, group) in (base_offset..).zip(groups.iter_mut().flatten()) {
            for (copy, r) in group.iter_mut().enumerate() {
                r.base_index = base;
                r.id = record_id(base, copy);
            }
        }
        groups
    }

    /// Reassemble a corpus from records and the config that produced them
    /// (used when loading a cached corpus artifact).
    pub fn from_parts(records: Vec<MatrixRecord>, config: CorpusConfig) -> Corpus {
        Corpus { records, config }
    }

    /// Number of records (base + augmented).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The configuration used to build this corpus.
    pub fn config(&self) -> &CorpusConfig {
        &self.config
    }

    /// Benchmark every record on one GPU. `None` entries are records that
    /// do not fit in that GPU's memory (dropped from its dataset).
    pub fn benchmark(&self, gpu: Gpu) -> Vec<Option<BenchResult>> {
        let stats: Vec<MatrixStats> = self.records.iter().map(|r| r.stats.clone()).collect();
        let ids: Vec<u64> = self.records.iter().map(|r| r.id).collect();
        benchmark_corpus(&gpu.spec(), &stats, &ids)
    }

    /// Benchmark every record on one GPU through the shard cache: each
    /// record shard's cells are loaded when a valid benchmark shard
    /// exists and computed (then stored back) otherwise. Whole shards
    /// are benchmarked — including records past `n_base` — so the cells
    /// are shared verbatim by every corpus size in the family. The
    /// benchmark model is per-record pure, so the outcome is
    /// bit-identical to [`Corpus::benchmark`].
    pub fn benchmark_cached(
        &self,
        plan: &CorpusPlan,
        gpu: Gpu,
        cache: &Cache,
    ) -> Vec<Option<BenchResult>> {
        let spec = gpu.spec();
        let mut by_id: std::collections::HashMap<u64, Option<BenchResult>> =
            std::collections::HashMap::new();
        for sh in &plan.shards {
            let cells = cache
                .load_bench_shard(&self.config, sh.index, gpu, &sh.ids)
                .unwrap_or_else(|| {
                    let results = benchmark_corpus(&spec, &sh.stats, &sh.ids);
                    cache.store_bench_shard(&self.config, sh.index, gpu, &sh.ids, &results);
                    results
                });
            for (&id, cell) in sh.ids.iter().zip(cells) {
                by_id.insert(id, cell);
            }
        }
        self.records.iter().map(|r| by_id[&r.id]).collect()
    }

    /// Resiliently benchmark every record on one GPU: trial-level
    /// measurement with retry, robust aggregation, and quarantine. With
    /// `faults` disabled the outcomes are bit-identical to
    /// [`Corpus::benchmark`].
    pub fn measure(&self, gpu: Gpu, faults: &FaultConfig, policy: &TrialPolicy) -> CorpusBench {
        let stats: Vec<MatrixStats> = self.records.iter().map(|r| r.stats.clone()).collect();
        let ids: Vec<u64> = self.records.iter().map(|r| r.id).collect();
        measure_corpus(&gpu.spec(), &stats, &ids, faults, policy)
    }

    /// Indices of records that fit (all-format-feasible) on *every* GPU —
    /// the paper's "Common Subset" used for transfer experiments.
    pub fn common_subset(&self, benches: &[Vec<Option<BenchResult>>]) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| benches.iter().all(|b| b[i].is_some()))
            .collect()
    }

    /// Ground-truth labels on one GPU for the given record indices.
    /// Errors (instead of panicking) when an index has no usable
    /// benchmark result — infeasible or quarantined records can reach
    /// here under fault injection.
    pub fn labels(results: &[Option<BenchResult>], indices: &[usize]) -> CoreResult<Vec<Format>> {
        indices
            .iter()
            .map(|&i| {
                results.get(i).copied().flatten().map(|r| r.best).ok_or(
                    CoreError::InfeasibleRecord {
                        gpu: String::new(),
                        index: i,
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spsel_matrix::{permute, CsrMatrix};

    /// The records of candidate `gen_index` as the builder made them before
    /// records came from positions: ELL feasibility from row counts, each
    /// record through a CSR matrix and `MatrixStats::from_csr`, each copy
    /// built as a COO matrix by `permute::random_permuted`.
    fn oracle_records(gen_index: usize, cfg: &CorpusConfig) -> Option<Vec<MatrixRecord>> {
        let (family, m) = generate_base(gen_index, cfg);
        let stats = MatrixStats::from_row_counts(m.nrows(), m.ncols(), &m.row_counts());
        if !cusp_ell_feasible(&stats) || stats.nnz == 0 {
            return None;
        }
        let record = |augmented: bool, coo: &CooMatrix| {
            let csr = CsrMatrix::from(coo);
            let stats = MatrixStats::from_csr(&csr);
            MatrixRecord {
                id: 0,
                family,
                base_index: gen_index,
                augmented,
                features: FeatureVector::from_stats(&stats),
                stats,
                image: cfg
                    .with_images
                    .then(|| DensityImage::from_csr(&csr, cfg.image_resolution)),
            }
        };
        let mut out = vec![record(false, &m)];
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA06 ^ (gen_index as u64) << 20);
        for _ in 0..cfg.augment_copies {
            out.push(record(true, &permute::random_permuted(&m, &mut rng)));
        }
        Some(out)
    }

    #[test]
    fn records_from_positions_match_the_csr_oracle() {
        let configs = [
            CorpusConfig::small(0, 5).with_images(16),
            CorpusConfig {
                augment_copies: 3,
                ..CorpusConfig::small(0, 11).with_images(7)
            },
            CorpusConfig {
                size_scale: 0.2,
                ..CorpusConfig::small(0, 0xC0FFEE).with_images(32)
            },
        ];
        let mut families = std::collections::HashSet::new();
        let mut dropped = 0;
        for cfg in &configs {
            for gen_index in 0..48 {
                let records = candidate_records(gen_index, cfg);
                assert_eq!(
                    records,
                    oracle_records(gen_index, cfg),
                    "candidate {gen_index} of {cfg:?}"
                );
                match records {
                    Some(group) => {
                        families.insert(group[0].family);
                    }
                    None => dropped += 1,
                }
            }
        }
        assert_eq!(families.len(), Family::ALL.len(), "{families:?}");
        assert!(dropped > 0, "no candidate failed the ELL rule");
    }

    fn small_corpus() -> Corpus {
        Corpus::build(CorpusConfig::small(40, 7))
    }

    #[test]
    fn corpus_has_requested_size() {
        let c = small_corpus();
        // 40 base + 1 copy each.
        assert_eq!(c.len(), 80);
        assert_eq!(c.records.iter().filter(|r| !r.augmented).count(), 40);
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = Corpus::build(CorpusConfig::small(20, 3));
        let b = Corpus::build(CorpusConfig::small(20, 3));
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.stats, y.stats);
        }
    }

    #[test]
    fn all_records_pass_ell_rule_for_base() {
        let c = small_corpus();
        for r in c.records.iter().filter(|r| !r.augmented) {
            assert!(
                cusp_ell_feasible(&r.stats),
                "{:?} violates ELL rule",
                r.family
            );
        }
    }

    #[test]
    fn augmented_copies_preserve_row_count_multiset() {
        let c = small_corpus();
        for r in &c.records {
            if r.augmented {
                let base = c
                    .records
                    .iter()
                    .find(|b| !b.augmented && b.base_index == r.base_index)
                    .expect("base record exists");
                assert_eq!(base.stats.nnz, r.stats.nnz);
                assert_eq!(base.stats.nnz_max, r.stats.nnz_max);
                assert_eq!(base.stats.nnz_mean, r.stats.nnz_mean);
            }
        }
    }

    #[test]
    fn families_are_diverse() {
        let c = Corpus::build(CorpusConfig::small(60, 1));
        let fams: std::collections::HashSet<Family> = c.records.iter().map(|r| r.family).collect();
        assert!(fams.len() >= 5, "only {} families", fams.len());
    }

    #[test]
    fn benchmark_labels_cover_multiple_formats() {
        let c = Corpus::build(CorpusConfig::small(60, 2));
        let results = c.benchmark(Gpu::Turing);
        let mut seen = std::collections::HashSet::new();
        for r in results.iter().flatten() {
            seen.insert(r.best);
        }
        assert!(seen.len() >= 2, "labels degenerate: {seen:?}");
    }

    #[test]
    fn common_subset_is_subset_of_all() {
        let c = small_corpus();
        let benches: Vec<_> = Gpu::ALL.iter().map(|&g| c.benchmark(g)).collect();
        let common = c.common_subset(&benches);
        assert!(common.len() <= c.len());
        for &i in &common {
            for b in &benches {
                assert!(b[i].is_some());
            }
        }
    }
}
