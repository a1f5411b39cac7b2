//! Crash-safe model lifecycle, end to end: a restarted engine is
//! state-identical to the one that died (observes and feedback both
//! replay), a journal truncated at *any* byte recovers exactly its
//! full-line prefix, a kill at every compaction boundary leaves either
//! the old state or the new one (never a corrupt store), a hot-swap
//! under a live request flood drops nothing, and a follower converges
//! on the leader through `Sync`.

use spsel_core::cache::Cache;
use spsel_core::corpus::CorpusConfig;
use spsel_core::experiments::ExperimentContext;
use spsel_core::telemetry::RunReport;
use spsel_features::{FeatureVector, MatrixStats};
use spsel_matrix::{gen, CsrMatrix};
use spsel_serve::artifact::{self, ModelArtifact, TrainConfig};
use spsel_serve::protocol::SelectReply;
use spsel_serve::{
    checkpoint_path, load_checkpoint, read_journal, Client, CrashPoint, Engine, EngineOptions,
    JournalConfig, Request, SelectBody, ServeOptions, Server,
};
use std::path::PathBuf;
use std::sync::Arc;

fn train_model(seed: u64) -> ModelArtifact {
    let cache = Cache::disabled();
    let mut report = RunReport::new("lifecycle-test");
    let ctx = ExperimentContext::build(CorpusConfig::small(30, seed), &cache, &mut report);
    artifact::train(&ctx, &TrainConfig::default()).expect("training succeeds")
}

/// Feature vectors the small training corpus never saw; distinct seeds
/// give distinct shapes so successive observes exercise both
/// cluster-opening and cluster-absorbing paths.
fn novel(seed: u64) -> Vec<f64> {
    let rows = 1200 + (seed as usize % 7) * 131;
    let csr = CsrMatrix::from(&gen::bimodal(rows, rows, 3, 40, 0.3, seed));
    FeatureVector::from_stats(&MatrixStats::from_csr(&csr))
        .as_slice()
        .to_vec()
}

fn body(features: Vec<f64>, gpu: &str, learn: bool) -> SelectBody {
    SelectBody {
        matrix: None,
        features: Some(features),
        gpu: gpu.into(),
        iterations: Some(500),
        learn: Some(learn),
        workload: None,
    }
}

/// Deterministic read-only probe of the online state.
fn probe(engine: &Engine, seed: u64, gpu: &str) -> SelectReply {
    engine
        .select(&body(novel(seed), gpu, false))
        .expect("probe select succeeds")
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "spsel-lifecycle-{tag}-{}.journal",
        std::process::id()
    ))
}

fn cleanup(journal: &PathBuf) {
    std::fs::remove_file(journal).ok();
    std::fs::remove_file(checkpoint_path(journal)).ok();
}

/// Apply a fixed mutation workload — observes that open and revisit
/// clusters on two GPUs, plus one corrective feedback label — and
/// return the seeds probed afterwards.
fn mutate(engine: &Engine) -> Vec<(u64, &'static str)> {
    for (seed, gpu) in [(7, "pascal"), (19, "volta"), (7, "pascal"), (23, "pascal")] {
        let reply = engine
            .select(&body(novel(seed), gpu, true))
            .expect("learn select succeeds");
        assert_eq!(reply.gpu.to_lowercase(), gpu);
    }
    let opened = engine
        .select(&body(novel(7), "pascal", false))
        .expect("probe succeeds");
    engine
        .feedback("pascal", opened.cluster, "coo")
        .expect("feedback succeeds");
    vec![(7, "pascal"), (19, "volta"), (23, "pascal"), (42, "turing")]
}

fn engine_with_journal(model: &ModelArtifact, journal: &PathBuf, cfg: JournalConfig) -> Engine {
    let mut engine = Engine::from_artifact(model, &EngineOptions::default()).unwrap();
    engine
        .attach_journal_with(journal, cfg)
        .expect("journal attach succeeds");
    engine
}

/// Tentpole part 1: observes are as durable as feedback. A restarted
/// engine replays both and answers every read-only probe bit-identically
/// to the engine that died, including clusters opened online that were
/// never labeled.
#[test]
fn restart_replays_observes_and_feedback_state_identically() {
    let model = train_model(5);
    let journal = tmp("restart");
    cleanup(&journal);

    let first = engine_with_journal(&model, &journal, JournalConfig::default());
    let probes = mutate(&first);
    let before: Vec<SelectReply> = probes.iter().map(|&(s, g)| probe(&first, s, g)).collect();
    let report = first.serving_report();
    assert_eq!(report.observes_journaled, 4, "every learn select journals");
    assert_eq!(report.journal_appended, 1, "feedback keeps its own counter");
    let stats = first.stats();
    assert!(stats.lifecycle.journal_attached);
    assert_eq!(stats.lifecycle.last_seq, 5);
    assert_eq!(stats.lifecycle.applied_seq, 5);
    assert_eq!(stats.lifecycle.records_since_checkpoint, 5);
    assert!(stats.lifecycle.journal_bytes > 0);
    drop(first);

    let second = engine_with_journal(&model, &journal, JournalConfig::default());
    let after: Vec<SelectReply> = probes.iter().map(|&(s, g)| probe(&second, s, g)).collect();
    assert_eq!(after, before, "restart must be state-identical");
    let report = second.serving_report();
    assert_eq!(report.observes_replayed, 4);
    assert_eq!(report.journal_replayed, 1);
    assert_eq!(report.journal_skipped, 0);
    assert_eq!(second.stats().lifecycle.last_seq, 5, "numbering continues");
    cleanup(&journal);
}

/// Tentpole part 5 / satellite: truncate the journal at every byte
/// offset — the scan never fails, recovers exactly the records whose
/// lines are complete in the prefix, and counts at most the one torn
/// line as malformed.
#[test]
fn journal_truncated_at_every_byte_recovers_the_full_line_prefix() {
    let model = train_model(5);
    let journal = tmp("truncate");
    cleanup(&journal);
    let engine = engine_with_journal(&model, &journal, JournalConfig::default());
    mutate(&engine);
    drop(engine);

    let bytes = std::fs::read(&journal).expect("journal exists");
    let full = read_journal(&journal).expect("full scan succeeds");
    assert_eq!(full.entries.len(), 5);
    assert!(!full.unterminated);

    let prefix_path = tmp("truncate-prefix");
    for cut in 0..=bytes.len() {
        std::fs::write(&prefix_path, &bytes[..cut]).unwrap();
        let scan =
            read_journal(&prefix_path).unwrap_or_else(|e| panic!("scan fails at byte {cut}: {e}"));
        // Lines whose newline survived the cut are guaranteed; a final
        // line cut exactly at its closing brace still parses.
        let complete = bytes[..cut].iter().filter(|&&b| b == b'\n').count();
        let guaranteed = complete.saturating_sub(1); // minus the header line
        assert!(
            scan.entries.len() >= guaranteed && scan.entries.len() <= guaranteed + 1,
            "byte {cut}: {} entries from {complete} complete lines",
            scan.entries.len()
        );
        assert_eq!(
            scan.entries,
            full.entries[..scan.entries.len()],
            "byte {cut}: recovered entries must be a prefix of the full journal"
        );
        assert!(scan.malformed <= 1, "byte {cut}: at most the torn line");
    }

    // Attaching an engine to a torn journal seals the tail and serves;
    // spot-check a mid-record cut (the sweep above proved the scan).
    let cut = bytes.len() - 7;
    std::fs::write(&prefix_path, &bytes[..cut]).unwrap();
    let engine = engine_with_journal(&model, &prefix_path, JournalConfig::default());
    assert_eq!(engine.serving_report().torn_tails, 1);
    engine
        .select(&body(novel(3), "pascal", true))
        .expect("appends still work after sealing");
    drop(engine);
    let resealed = read_journal(&prefix_path).unwrap();
    assert!(!resealed.unterminated, "open sealed the torn tail");
    cleanup(&journal);
    cleanup(&prefix_path);
}

/// Tentpole parts 2 + 5: a deterministic kill at every compaction
/// boundary. Whatever the crash point, a restart recovers the exact
/// pre-crash state, and any checkpoint file on disk parses — old or
/// new, never corrupt.
#[test]
fn a_crash_at_every_compaction_boundary_recovers_exactly() {
    let model = train_model(5);
    for crash in [
        CrashPoint::BeforeCheckpointRename,
        CrashPoint::AfterCheckpointRename,
        CrashPoint::BeforeJournalRename,
        CrashPoint::None,
    ] {
        let journal = tmp(&format!("crash-{crash:?}"));
        cleanup(&journal);
        let engine = engine_with_journal(&model, &journal, JournalConfig::default());
        let probes = mutate(&engine);
        let before: Vec<SelectReply> = probes.iter().map(|&(s, g)| probe(&engine, s, g)).collect();
        let finished = engine.compact_with_crash(crash).expect("compaction runs");
        assert_eq!(finished, crash == CrashPoint::None, "{crash:?}");
        drop(engine);

        // The checkpoint, when present, must parse (atomic rename means
        // it is either absent, the old one, or the complete new one).
        let ckpt = load_checkpoint(&checkpoint_path(&journal))
            .unwrap_or_else(|e| panic!("{crash:?}: checkpoint unreadable: {e}"));
        match crash {
            CrashPoint::BeforeCheckpointRename => {
                assert!(ckpt.is_none(), "rename never happened")
            }
            _ => assert_eq!(ckpt.expect("checkpoint published").last_seq, 5),
        }

        let restarted = engine_with_journal(&model, &journal, JournalConfig::default());
        let after: Vec<SelectReply> = probes
            .iter()
            .map(|&(s, g)| probe(&restarted, s, g))
            .collect();
        assert_eq!(after, before, "{crash:?}: restart must recover exactly");
        let lc = restarted.stats().lifecycle;
        if crash == CrashPoint::None {
            assert_eq!(lc.checkpoint_seq, 5);
            assert_eq!(lc.records_since_checkpoint, 0, "journal is just a tail");
            let scan = read_journal(&journal).unwrap();
            assert!(scan.entries.is_empty(), "compaction bounded the journal");
        }
        // New mutations still journal and still survive another restart.
        restarted
            .select(&body(novel(57), "volta", true))
            .expect("post-recovery select succeeds");
        let check = probe(&restarted, 57, "volta");
        drop(restarted);
        let third = engine_with_journal(&model, &journal, JournalConfig::default());
        assert_eq!(probe(&third, 57, "volta"), check, "{crash:?}");
        cleanup(&journal);
    }
}

/// Satellite: past the configured record threshold the journal compacts
/// automatically — the checkpoint absorbs the history and the live file
/// drops back to a header.
#[test]
fn auto_compaction_bounds_the_journal() {
    let model = train_model(5);
    let journal = tmp("auto-compact");
    cleanup(&journal);
    let engine = engine_with_journal(
        &model,
        &journal,
        JournalConfig {
            fsync: false,
            checkpoint_every: 4,
        },
    );
    let probes = mutate(&engine); // 5 records: crosses the threshold
    let lc = engine.stats().lifecycle;
    assert_eq!(lc.compactions, 1);
    assert_eq!(lc.checkpoint_seq, 4, "compacted at the 4-record threshold");
    assert_eq!(
        lc.records_since_checkpoint, 1,
        "the fifth record is the tail"
    );
    assert_eq!(engine.serving_report().compactions, 1);
    let before: Vec<SelectReply> = probes.iter().map(|&(s, g)| probe(&engine, s, g)).collect();
    drop(engine);

    let restarted = engine_with_journal(&model, &journal, JournalConfig::default());
    let after: Vec<SelectReply> = probes
        .iter()
        .map(|&(s, g)| probe(&restarted, s, g))
        .collect();
    assert_eq!(after, before, "checkpoint + tail replay exactly");
    cleanup(&journal);
}

/// Tentpole part 3: swapping in a retrained artifact rebases the journal
/// tail onto it, so the published model equals a cold start of the new
/// artifact against the same journal; a digest expectation that doesn't
/// match is rejected without touching the serving model.
#[test]
fn swap_rebases_the_journal_tail_and_validates_digests() {
    let old_model = train_model(5);
    let new_model = train_model(11);
    assert_ne!(old_model.context_digest, new_model.context_digest);
    let artifact_path = tmp("swap-artifact");
    artifact::save(&new_model, &artifact_path).unwrap();
    let journal = tmp("swap");
    cleanup(&journal);

    let engine = engine_with_journal(&old_model, &journal, JournalConfig::default());
    let probes = mutate(&engine);
    // A cold-start control on the new artifact sees the same journal the
    // swap will rebase (copied aside: the swap compacts the original).
    let control_journal = tmp("swap-control");
    cleanup(&control_journal);
    engine.sync(0).expect("leader sync flushes the journal");
    std::fs::copy(&journal, &control_journal).unwrap();

    let wrong = engine.swap(artifact_path.to_str().unwrap(), Some("not-the-real-digest"));
    assert_eq!(
        wrong.expect_err("digest mismatch rejects").code(),
        "context_digest_mismatch"
    );
    let before_reject = probe(&engine, 7, "pascal");

    let reply = engine
        .swap(
            artifact_path.to_str().unwrap(),
            Some(&new_model.context_digest),
        )
        .expect("swap succeeds");
    assert_eq!(reply.context_digest, new_model.context_digest);
    assert_eq!(reply.previous_digest, old_model.context_digest);
    assert_eq!(reply.rebased, 5, "every journal record rebased");
    assert_eq!(engine.serving_report().swaps, 1);
    assert_eq!(
        engine.stats().lifecycle.last_swap_digest.as_deref(),
        Some(new_model.context_digest.as_str())
    );

    let control = engine_with_journal(&new_model, &control_journal, JournalConfig::default());
    for &(seed, gpu) in &probes {
        assert_eq!(
            probe(&engine, seed, gpu),
            probe(&control, seed, gpu),
            "post-swap decisions must equal a cold start on the new artifact"
        );
    }
    // The rejected swap really left the old model serving until the good
    // one: the pre-swap probe matched the old model's state.
    assert_eq!(before_reject.gpu, "Pascal");
    cleanup(&journal);
    cleanup(&control_journal);
    std::fs::remove_file(&artifact_path).ok();
}

/// A hot swap keeps the online-contention counters counting. They are
/// summed from the model's selectors, and the swap publishes fresh ones,
/// so the retired model's totals must carry over: after selects, a swap
/// and more selects (no journal, so nothing is rebased), each counter
/// equals its value before the swap plus what the same later selects
/// count on a fresh engine. The lock wait is a timing, so it must only
/// not drop.
#[test]
fn a_swap_keeps_the_contention_counters_counting() {
    let model = train_model(5);
    let artifact_path = tmp("swap-counters-artifact");
    artifact::save(&model, &artifact_path).unwrap();
    let selects = |engine: &Engine, seeds: std::ops::Range<u64>| {
        for seed in seeds {
            for learn in [false, true] {
                engine
                    .select(&body(novel(seed), "pascal", learn))
                    .expect("select succeeds");
            }
        }
    };
    let engine = Engine::from_artifact(&model, &EngineOptions::default()).unwrap();
    selects(&engine, 0..5);
    let before = engine.serving_report();
    engine
        .swap(artifact_path.to_str().unwrap(), None)
        .expect("swap succeeds");
    selects(&engine, 5..8);
    let after = engine.serving_report();
    let control = Engine::from_artifact(&model, &EngineOptions::default()).unwrap();
    selects(&control, 5..8);
    let since = control.serving_report();
    std::fs::remove_file(&artifact_path).ok();

    assert_eq!((before.read_decisions, before.write_decisions), (5, 5));
    assert_eq!(after.select_requests, 16);
    for (name, before, after, since) in [
        (
            "read_decisions",
            before.read_decisions,
            after.read_decisions,
            since.read_decisions,
        ),
        (
            "write_decisions",
            before.write_decisions,
            after.write_decisions,
            since.write_decisions,
        ),
        (
            "write_lock_acquisitions",
            before.write_lock_acquisitions,
            after.write_lock_acquisitions,
            since.write_lock_acquisitions,
        ),
        (
            "snapshot_swaps",
            before.snapshot_swaps,
            after.snapshot_swaps,
            since.snapshot_swaps,
        ),
    ] {
        assert_eq!(after, before + since, "{name} restarted at the swap");
    }
    assert!(after.write_lock_wait_us >= before.write_lock_wait_us);
}

/// Tentpole part 3, wire edition: a hot-swap lands under a live flood of
/// requests with zero failures, zero sheds, and zero dropped
/// connections, and post-swap decisions come from the new model.
#[test]
fn hot_swap_under_live_flood_drops_nothing() {
    let old_model = train_model(5);
    let new_model = train_model(11);
    let artifact_path = tmp("flood-artifact");
    artifact::save(&new_model, &artifact_path).unwrap();
    let journal = tmp("flood");
    cleanup(&journal);

    let engine = engine_with_journal(&old_model, &journal, JournalConfig::default());
    let server = Server::bind(
        Arc::new(engine),
        ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        },
    )
    .expect("bind succeeds");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run());

    // Flood: four clients hammer read-only selects while the swap lands.
    let flood: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("flood client connects");
                let mut done = 0u64;
                for i in 0..60 {
                    let request = Request::Select {
                        matrix: None,
                        features: Some(novel(t * 100 + i % 5)),
                        gpu: ["pascal", "volta", "turing"][i as usize % 3].into(),
                        iterations: Some(400),
                        deadline_ms: None,
                        learn: Some(false),
                        workload: None,
                    };
                    let response = client.roundtrip(&request).expect("flood roundtrip");
                    assert!(response.ok, "flood request failed: {response:?}");
                    done += 1;
                }
                done
            })
        })
        .collect();

    let mut admin = Client::connect(addr).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(30));
    let swapped = admin
        .roundtrip(&Request::Swap {
            path: artifact_path.to_str().unwrap().to_string(),
            expected_digest: Some(new_model.context_digest.clone()),
        })
        .unwrap();
    assert!(swapped.ok, "swap failed: {swapped:?}");
    assert_eq!(
        swapped.swap.expect("swap payload").context_digest,
        new_model.context_digest
    );

    let completed: u64 = flood.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(completed, 240, "every flood request completed");

    // Post-swap decisions equal a cold engine on the new artifact (the
    // flood was read-only, so the rebased tail was empty).
    let cold = Engine::from_artifact(&new_model, &EngineOptions::default()).unwrap();
    for seed in [7, 19, 23] {
        let live = admin
            .roundtrip(&Request::Select {
                matrix: None,
                features: Some(novel(seed)),
                gpu: "pascal".into(),
                iterations: Some(500),
                deadline_ms: None,
                learn: Some(false),
                workload: None,
            })
            .unwrap();
        assert_eq!(
            live.select.expect("select payload"),
            probe(&cold, seed, "pascal")
        );
    }

    admin.roundtrip(&Request::Shutdown).unwrap();
    let report = handle.join().unwrap();
    assert_eq!(report.errors, 0, "zero failed requests through the swap");
    assert_eq!(report.shed, 0, "zero shed requests through the swap");
    assert_eq!(report.swaps, 1);
    assert_eq!(report.swap_requests, 1);
    cleanup(&journal);
    std::fs::remove_file(&artifact_path).ok();
}

/// Tentpole part 4: a follower converges on the leader through `Sync` —
/// checkpoint plus tail on first contact, tail-only increments after —
/// and serves byte-identical read-only decisions.
#[test]
fn follower_converges_on_the_leader_via_sync() {
    let model = train_model(5);
    let journal = tmp("sync");
    cleanup(&journal);
    let leader = engine_with_journal(&model, &journal, JournalConfig::default());
    let probes = mutate(&leader);
    assert!(leader.compact().expect("manual compaction"), "compacts");
    leader
        .select(&body(novel(61), "turing", true))
        .expect("post-checkpoint tail record");

    let follower = Engine::from_artifact(&model, &EngineOptions::default()).unwrap();
    assert_eq!(
        follower
            .sync(0)
            .expect_err("journal-less engines cannot lead")
            .code(),
        "bad_request"
    );

    // First contact: the follower is behind the checkpoint, so the reply
    // carries it plus the tail.
    let first = leader.sync(0).expect("leader answers sync");
    assert!(
        first.checkpoint.is_some(),
        "cold follower gets the checkpoint"
    );
    assert_eq!(first.last_seq, 6);
    let applied = follower.apply_sync(&first).expect("follower applies");
    assert!(applied >= 1, "tail records applied");
    assert_eq!(follower.applied_seq(), 6);
    let all_probes: Vec<(u64, &str)> = probes.iter().copied().chain([(61, "turing")]).collect();
    for &(seed, gpu) in &all_probes {
        assert_eq!(
            probe(&follower, seed, gpu),
            probe(&leader, seed, gpu),
            "follower must serve the leader's decisions"
        );
    }

    // Increment: new leader records, tail-only catch-up from applied_seq.
    leader
        .select(&body(novel(67), "pascal", true))
        .expect("new leader record");
    leader
        .feedback("pascal", probe(&leader, 67, "pascal").cluster, "ell")
        .expect("new leader feedback");
    let second = leader
        .sync(follower.applied_seq())
        .expect("incremental sync");
    assert!(
        second.checkpoint.is_none(),
        "caught-up follower skips the checkpoint"
    );
    assert_eq!(second.records.len(), 2);
    follower.apply_sync(&second).expect("increment applies");
    assert_eq!(follower.applied_seq(), leader.stats().lifecycle.last_seq);
    for &(seed, gpu) in all_probes.iter().chain(&[(67, "pascal")]) {
        assert_eq!(probe(&follower, seed, gpu), probe(&leader, seed, gpu));
    }
    // Re-applying the same reply is idempotent (records below
    // applied_seq are skipped).
    follower
        .apply_sync(&second)
        .expect("replays are idempotent");
    for &(seed, gpu) in &all_probes {
        assert_eq!(probe(&follower, seed, gpu), probe(&leader, seed, gpu));
    }
    let report = leader.serving_report();
    assert!(report.sync_records_sent >= 2);
    assert!(report.sync_bytes_sent > 0);
    assert!(follower.serving_report().sync_records_applied >= 2);
    cleanup(&journal);
}

/// A follower rejects leader state from a different training context.
#[test]
fn sync_from_a_different_context_is_rejected() {
    let model_a = train_model(5);
    let model_b = train_model(11);
    let journal = tmp("sync-mismatch");
    cleanup(&journal);
    let leader = engine_with_journal(&model_a, &journal, JournalConfig::default());
    mutate(&leader);
    let reply = leader.sync(0).unwrap();
    let follower = Engine::from_artifact(&model_b, &EngineOptions::default()).unwrap();
    assert_eq!(
        follower
            .apply_sync(&reply)
            .expect_err("context mismatch rejects")
            .code(),
        "context_digest_mismatch"
    );
    cleanup(&journal);
}
