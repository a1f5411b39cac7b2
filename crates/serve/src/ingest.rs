//! Corpus growth: promote serve-time observations into training data.
//!
//! The daemon journals every `learn: true` decision as an `Observe` line
//! carrying the raw Table 1 feature vector (see [`crate::journal`]).
//! `spsel corpus ingest` closes the serve→train loop: it replays those
//! observations, reconstructs each matrix's structural stats from its
//! features (the same inverse mapping the inline-features request path
//! uses), benchmarks the reconstructed matrix on every GPU of the
//! performance model, and appends the result to the persistent cache's
//! *growth shards* for the training corpus family
//! ([`Cache::append_growth`]). The next `spsel train` run extends its
//! context with the grown records ([`ExperimentContext::extend_with_growth`])
//! without regenerating or re-benchmarking anything that already exists.
//!
//! Records are identified by [`engine::matrix_id`] — the FNV hash of the
//! feature bit patterns — so re-ingesting the same journal (or the same
//! matrix observed twice) is naturally idempotent: duplicates are dropped
//! both within a batch and against previously appended growth shards.
//!
//! [`ExperimentContext::extend_with_growth`]: spsel_core::experiments::ExperimentContext::extend_with_growth

use crate::engine;
use crate::error::ServeError;
use crate::journal::{read_journal, JournalLine};
use spsel_core::cache::{Cache, GrownRecord};
use spsel_core::corpus::{CorpusConfig, MatrixRecord};
use spsel_features::FeatureVector;
use spsel_gpusim::{benchmark_corpus, Gpu};
use spsel_matrix::gen::Family;
use std::path::Path;

/// What one ingest pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// `Observe` lines scanned in the journal.
    pub observed: u64,
    /// Journal lines that parsed as nothing (torn writes), plus observes
    /// whose feature vector had the wrong dimension.
    pub malformed: u64,
    /// Distinct candidate matrices benchmarked (after in-batch dedup).
    pub candidates: usize,
    /// Records actually appended to growth shards (after dedup against
    /// growth already on disk).
    pub appended: usize,
}

/// Replay a serve journal and append every new observed matrix — record
/// plus benchmark cells on all GPUs — to `cfg`'s growth shards in
/// `cache`. Duplicate observations (same feature bit patterns) collapse
/// to one record; observations already ingested by an earlier pass are
/// skipped. Safe to run repeatedly and on a journal the daemon is still
/// appending to (the scan tolerates a torn tail).
pub fn ingest_journal(
    journal: &Path,
    cfg: &CorpusConfig,
    cache: &Cache,
) -> Result<IngestReport, ServeError> {
    let scan = read_journal(journal)?;
    let mut report = IngestReport {
        malformed: scan.malformed,
        ..IngestReport::default()
    };

    // Distinct candidates, first observation wins (its seq is recorded
    // as provenance).
    let mut seen = std::collections::HashSet::new();
    let mut candidates: Vec<(u64, u64, FeatureVector)> = Vec::new();
    for entry in &scan.entries {
        let JournalLine::Observe { seq, features, .. } = entry else {
            continue;
        };
        report.observed += 1;
        let Ok(fv) = engine::inline_features(features) else {
            report.malformed += 1;
            continue;
        };
        let id = engine::matrix_id(&fv);
        if seen.insert(id) {
            candidates.push((*seq, id, fv));
        }
    }
    report.candidates = candidates.len();
    if candidates.is_empty() {
        return Ok(report);
    }

    // Benchmark every candidate on every GPU of the performance model —
    // the same ground-truth path corpus construction uses, so a grown
    // record is indistinguishable from a generated one downstream.
    let ids: Vec<u64> = candidates.iter().map(|(_, id, _)| *id).collect();
    let stats: Vec<_> = candidates
        .iter()
        .map(|(_, _, fv)| engine::stats_from_features(fv))
        .collect();
    let benches: Vec<Vec<Option<spsel_gpusim::BenchResult>>> = Gpu::ALL
        .iter()
        .map(|g| benchmark_corpus(&g.spec(), &stats, &ids))
        .collect();

    let batch: Vec<GrownRecord> = candidates
        .iter()
        .enumerate()
        .map(|(i, (seq, id, fv))| GrownRecord {
            source_seq: *seq,
            record: MatrixRecord {
                id: *id,
                family: Family::Observed,
                // Observed records derive from no generator candidate.
                base_index: usize::MAX,
                augmented: false,
                stats: stats[i].clone(),
                features: fv.clone(),
                image: None,
            },
            benches: benches.iter().map(|per_gpu| per_gpu[i]).collect(),
        })
        .collect();
    report.appended = cache.append_growth(cfg, &batch);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::FeedbackJournal;
    use spsel_features::MatrixStats;
    use spsel_matrix::{gen, CsrMatrix};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spsel-ingest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn observed_features(seed: u64) -> FeatureVector {
        let coo = gen::random_uniform(400, 400, 6, seed);
        let csr = CsrMatrix::from(&coo);
        FeatureVector::from_stats(&MatrixStats::from_csr(&csr))
    }

    #[test]
    fn ingest_dedups_within_and_across_passes() {
        let dir = temp_dir("dedup");
        let journal_path = dir.join("serve.journal");
        let journal = FeedbackJournal::open(&journal_path).unwrap();
        let a = observed_features(1);
        let b = observed_features(2);
        journal.append_observe("Pascal", a.as_slice()).unwrap();
        journal.append_observe("Volta", a.as_slice()).unwrap(); // same matrix again
        journal.append_observe("Turing", b.as_slice()).unwrap();
        journal.append_feedback("Pascal", 0, "CSR").unwrap(); // not an observe
        drop(journal);

        let cfg = CorpusConfig::small(8, 3);
        let cache = Cache::new(dir.join("cache"));
        let r = ingest_journal(&journal_path, &cfg, &cache).unwrap();
        assert_eq!(r.observed, 3);
        assert_eq!(r.malformed, 0);
        assert_eq!(r.candidates, 2, "duplicate observation collapses");
        assert_eq!(r.appended, 2);
        assert_eq!(cache.report().records_ingested, 2);

        // A second pass over the same journal appends nothing new.
        let r2 = ingest_journal(&journal_path, &cfg, &cache).unwrap();
        assert_eq!(r2.candidates, 2);
        assert_eq!(r2.appended, 0, "re-ingest is idempotent");

        // The grown records read back with full benchmark coverage.
        let grown = cache.load_growth(&cfg);
        assert_eq!(grown.len(), 2);
        for g in &grown {
            assert_eq!(g.record.family, Family::Observed);
            assert!(!g.record.augmented);
            assert_eq!(g.benches.len(), Gpu::ALL.len());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ingest_skips_malformed_observations() {
        let dir = temp_dir("malformed");
        let journal_path = dir.join("serve.journal");
        let journal = FeedbackJournal::open(&journal_path).unwrap();
        journal.append_observe("Pascal", &[1.0, 2.0]).unwrap(); // wrong dimension
        journal
            .append_observe("Pascal", observed_features(9).as_slice())
            .unwrap();
        drop(journal);

        let cfg = CorpusConfig::small(8, 3);
        let cache = Cache::new(dir.join("cache"));
        let r = ingest_journal(&journal_path, &cfg, &cache).unwrap();
        assert_eq!(r.observed, 2);
        assert_eq!(r.malformed, 1);
        assert_eq!((r.candidates, r.appended), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_is_an_empty_ingest() {
        let dir = temp_dir("missing");
        let cfg = CorpusConfig::small(8, 3);
        let cache = Cache::new(dir.join("cache"));
        let r = ingest_journal(&dir.join("never-written.journal"), &cfg, &cache).unwrap();
        assert_eq!(r, IngestReport::default());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
