//! The corpus gate: every record the builder produces, pinned by digest.
//!
//! `baselines/corpus-records.txt` holds one line per record of three
//! corpora — the quick corpus the `--quick` binaries build, the same with
//! density images, and a paper-size slice with two permuted copies per
//! base that covers all ten generator families — plus one line per
//! record shard, digesting the ids and stats of every candidate the shard
//! kept (records past `n_base` included, since benchmark shards cover
//! them). A record line carries its id, family, base index and copy flag
//! in the clear, then 64-bit FNV-1a digests of the bit patterns of its
//! stats, its features and its image. On a mismatch the test names the
//! first differing line and writes the actual file next to the test
//! binaries.

use spsel_core::corpus::{Corpus, CorpusConfig};
use spsel_core::Cache;
use spsel_features::MatrixStats;
use spsel_matrix::gen::Family;
use std::collections::HashSet;
use std::fmt::Write;

const CORPUS_RECORDS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../baselines/corpus-records.txt"
);

/// 64-bit FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn stats_words(s: &MatrixStats) -> [u64; 17] {
    [
        s.nrows as u64,
        s.ncols as u64,
        s.nnz as u64,
        s.nnz_min as u64,
        s.nnz_max as u64,
        s.nnz_mean.to_bits(),
        s.nnz_std.to_bits(),
        s.sig_lower.to_bits(),
        s.sig_higher.to_bits(),
        s.csr_max as u64,
        s.hyb_ell_width as u64,
        s.hyb_ell_size as u64,
        s.hyb_ell_nnz as u64,
        s.hyb_coo_nnz as u64,
        s.diagonals as u64,
        s.dia_size as u64,
        s.ell_size as u64,
    ]
}

/// The digest lines of one corpus config, `label` first on each.
fn digest(label: &str, cfg: CorpusConfig) -> (String, HashSet<Family>) {
    let (corpus, plan) = Corpus::build_cached(cfg, &Cache::disabled());
    let mut out = String::new();
    let mut families = HashSet::new();
    for r in &corpus.records {
        families.insert(r.family);
        let image = r.image.as_ref().map_or("-".to_string(), |img| {
            let bits = img.pixels().iter().map(|p| u64::from(p.to_bits()));
            format!(
                "{:016x}",
                fnv(std::iter::once(img.resolution() as u64).chain(bits))
            )
        });
        writeln!(
            out,
            "{label} record {:#x} {} {} {} stats={:016x} features={:016x} image={image}",
            r.id,
            r.family,
            r.base_index,
            if r.augmented { "copy" } else { "base" },
            fnv(stats_words(&r.stats)),
            fnv(r.features.as_slice().iter().map(|v| v.to_bits())),
        )
        .unwrap();
    }
    for sh in &plan.shards {
        let words = sh
            .ids
            .iter()
            .zip(&sh.stats)
            .flat_map(|(&id, s)| std::iter::once(id).chain(stats_words(s)));
        writeln!(
            out,
            "{label} shard {} records={} digest={:016x}",
            sh.index,
            sh.ids.len(),
            fnv(words)
        )
        .unwrap();
    }
    (out, families)
}

/// Every record of the three pinned corpora matches the baseline.
#[test]
fn corpus_records_match_the_pinned_digests() {
    let quick = CorpusConfig::small(120, 0xC0FFEE);
    // At paper size few row-skewed candidates pass the ELL rule; the
    // first shard of seed 12 keeps one of every family, and its 47
    // passing candidates are the whole shard.
    let slice = CorpusConfig {
        n_base: 47,
        augment_copies: 2,
        seed: 12,
        ..CorpusConfig::paper()
    };
    let mut actual = String::new();
    for (label, cfg) in [
        ("quick", quick.clone()),
        ("quick-images", quick.with_images(16)),
        ("paper-slice", slice),
    ] {
        let (lines, families) = digest(label, cfg);
        if label == "paper-slice" {
            assert_eq!(
                families.len(),
                Family::ALL.len(),
                "the slice has every family"
            );
        }
        actual.push_str(&lines);
    }
    let expected = std::fs::read_to_string(CORPUS_RECORDS).unwrap_or_default();
    if actual != expected {
        let mut want = expected.lines();
        let first = actual
            .lines()
            .find(|line| want.next() != Some(*line))
            .unwrap_or("(a line past the last record)");
        let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("corpus-records.txt");
        std::fs::write(&out, &actual).expect("write the actual corpus records");
        panic!(
            "records differ from {CORPUS_RECORDS}, first at `{first}` (the actual file is in {})",
            out.display()
        );
    }
}
