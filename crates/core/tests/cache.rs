//! Sharded-cache behavior: warm reads reproduce computed artifacts
//! bit-for-bit, overlapping corpus sizes share records instead of
//! regenerating them, damage is repaired at shard granularity, fault
//! injection bypasses the benchmark cache in both directions, and GC
//! never strands a benchmark shard whose records are gone.
//!
//! Each test writes into its own directory under `target/` so runs never
//! interfere with each other or with the real `results/cache/`.

use spsel_core::cache::{Cache, GcConfig, GrownRecord, NO_CACHE_ENV};
use spsel_core::corpus::{Corpus, CorpusConfig};
use spsel_core::experiments::ExperimentContext;
use spsel_core::telemetry::RunReport;
use spsel_gpusim::{BenchResult, FaultConfig, Gpu, SpmvTimes, TrialPolicy};
use spsel_matrix::Format;
use std::path::PathBuf;
use std::time::{Duration, SystemTime};

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/cache-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn set_age(path: &std::path::Path, age: Duration) {
    let f = std::fs::File::options().append(true).open(path).unwrap();
    f.set_modified(SystemTime::now() - age).unwrap();
}

#[test]
fn overlapping_corpus_sizes_share_every_record() {
    let dir = test_dir("overlap");
    let big = CorpusConfig::small(60, 7);
    let mut small = big.clone();
    small.n_base = 40;

    // Cold run at the larger size: generates and benchmarks whole shards.
    let cold = Cache::new(&dir);
    let (corpus_big, plan_big) = Corpus::build_cached(big.clone(), &cold);
    let bench_big = corpus_big.benchmark_cached(&plan_big, Gpu::Turing, &cold);
    // The cached path is bit-identical to the direct path.
    assert_eq!(bench_big, corpus_big.benchmark(Gpu::Turing));
    let cold_report = cold.report();
    assert!(cold_report.record_misses > 0);
    assert_eq!(cold_report.record_hits, 0);

    // Warm run at the smaller size: every record and every benchmark
    // cell is shared — nothing is regenerated or re-benchmarked.
    let warm = Cache::new(&dir);
    let (corpus_small, plan_small) = Corpus::build_cached(small.clone(), &warm);
    let bench_small = corpus_small.benchmark_cached(&plan_small, Gpu::Turing, &warm);
    let warm_report = warm.report();
    assert_eq!(warm_report.record_misses, 0, "{warm_report:?}");
    assert_eq!(warm_report.misses, 0, "{warm_report:?}");
    assert!(warm_report.record_hits > 0, "{warm_report:?}");

    // And the shared-cache build is bit-identical to a cache-free one.
    let reference = Corpus::build(small);
    assert_eq!(corpus_small.records, reference.records);
    assert_eq!(bench_small, reference.benchmark(Gpu::Turing));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn experiment_context_is_bit_identical_warm_and_across_base_overlap() {
    let dir = test_dir("ctx-overlap");
    let big = CorpusConfig::small(30, 3);
    let mut small = big.clone();
    small.n_base = 20;

    let cold = Cache::new(&dir);
    let ctx_big = ExperimentContext::build(big.clone(), &cold, &mut RunReport::new("cold"));

    // Fully warm rerun at the same size: all hits, identical context.
    let warm = Cache::new(&dir);
    let ctx_warm = ExperimentContext::build(big, &warm, &mut RunReport::new("warm"));
    assert_eq!(ctx_warm.corpus.records, ctx_big.corpus.records);
    assert_eq!(ctx_warm.benches, ctx_big.benches);
    assert_eq!(ctx_warm.digest(), ctx_big.digest());
    let r = warm.report();
    assert_eq!((r.misses, r.record_misses), (0, 0), "{r:?}");

    // Warm overlapping smaller base: still all record-level hits, and
    // bit-identical to building that size without any cache.
    let overlap = Cache::new(&dir);
    let ctx_small = ExperimentContext::build(small.clone(), &overlap, &mut RunReport::new("sm"));
    let r = overlap.report();
    assert_eq!((r.misses, r.record_misses), (0, 0), "{r:?}");
    assert!(r.record_hits > 0, "{r:?}");
    let reference = ExperimentContext::new(small);
    assert_eq!(ctx_small.corpus.records, reference.corpus.records);
    assert_eq!(ctx_small.benches, reference.benches);
    assert_eq!(ctx_small.digest(), reference.digest());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partial_damage_regenerates_only_the_affected_shard() {
    let dir = test_dir("partial");
    // 70 base matrices always span two 64-candidate shards.
    let cfg = CorpusConfig::small(70, 11);

    let cold = Cache::new(&dir);
    let (corpus, plan) = Corpus::build_cached(cfg.clone(), &cold);
    let bench = corpus.benchmark_cached(&plan, Gpu::Pascal, &cold);
    assert!(plan.shards.len() >= 2, "n_base 70 must span 2+ shards");
    let shard_records: Vec<usize> = plan.shards.iter().map(|s| s.ids.len()).collect();

    // Damage the second record shard and the first benchmark shard.
    let rpath = cold.record_shard_path(&cfg, 1).unwrap();
    let bpath = cold.bench_shard_path(&cfg, 0, Gpu::Pascal).unwrap();
    let rbytes = std::fs::read(&rpath).unwrap();
    std::fs::write(&rpath, &rbytes[..rbytes.len() / 2]).unwrap();
    std::fs::write(&bpath, b"{not json\xff\xfe").unwrap();

    // The rebuild repairs exactly the damaged shards: shard 0's records
    // and shard 1's benchmark cells are served from cache, the rest is
    // recomputed — and the outputs are bit-identical to the cold run.
    let repair = Cache::new(&dir);
    let (corpus2, plan2) = Corpus::build_cached(cfg.clone(), &repair);
    let bench2 = corpus2.benchmark_cached(&plan2, Gpu::Pascal, &repair);
    assert_eq!(corpus2.records, corpus.records);
    assert_eq!(bench2, bench);
    let r = repair.report();
    assert_eq!(r.corrupt, 2, "{r:?}");
    // Hits: record shard 0 + bench shard 1; misses: record shard 1 +
    // bench shard 0 (each counted per contained record).
    assert_eq!(r.record_hits as usize, shard_records[0] + shard_records[1]);
    assert_eq!(
        r.record_misses as usize,
        shard_records[1] + shard_records[0]
    );
    assert_eq!(r.stores, 2, "only the damaged shards are rewritten");

    // After the repair, a fully warm run hits everything.
    let warm = Cache::new(&dir);
    let (corpus3, plan3) = Corpus::build_cached(cfg, &warm);
    assert_eq!(corpus3.benchmark_cached(&plan3, Gpu::Pascal, &warm), bench);
    let r = warm.report();
    assert_eq!((r.misses, r.record_misses), (0, 0), "{r:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_runs_bypass_the_benchmark_cache_both_ways() {
    let dir = test_dir("faults");
    let cfg = CorpusConfig::small(20, 5);

    // Clean cold run populates the shards.
    let cold = Cache::new(&dir);
    let ctx_clean = ExperimentContext::build(cfg.clone(), &cold, &mut RunReport::new("clean"));
    let bpath = cold.bench_shard_path(&cfg, 0, Gpu::Pascal).unwrap();
    let clean_bytes = std::fs::read(&bpath).unwrap();

    // A fault-injected run must not serve clean cells from the cache
    // (its results are fault-shaped) and must not write its degraded
    // cells back.
    let faults = FaultConfig::uniform(0.2, 17);
    let policy = TrialPolicy::default();
    let faulty_cache = Cache::new(&dir);
    let ctx_faulty = ExperimentContext::build_with_faults(
        cfg.clone(),
        &faulty_cache,
        &mut RunReport::new("faulty"),
        &faults,
        &policy,
    );
    assert!(ctx_faulty.degradation.injected.any());
    assert_ne!(
        ctx_faulty.benches, ctx_clean.benches,
        "fault-shaped results must not equal clean cached cells"
    );
    assert_eq!(
        std::fs::read(&bpath).unwrap(),
        clean_bytes,
        "a fault run must never overwrite clean benchmark shards"
    );

    // A clean warm run after the fault run still reproduces the clean
    // context bit-for-bit: the degraded results never reached the cache.
    let warm = Cache::new(&dir);
    let ctx_warm = ExperimentContext::build(cfg, &warm, &mut RunReport::new("warm"));
    assert_eq!(ctx_warm.benches, ctx_clean.benches);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gc_never_strands_a_shard_family_member() {
    let dir = test_dir("gc-family");
    let cfg = CorpusConfig::small(20, 9);
    let cache = Cache::new(&dir);
    let (corpus, plan) = Corpus::build_cached(cfg.clone(), &cache);
    corpus.benchmark_cached(&plan, Gpu::Pascal, &cache);

    let rpath = cache.record_shard_path(&cfg, 0).unwrap();
    let bpath = cache.bench_shard_path(&cfg, 0, Gpu::Pascal).unwrap();

    // The record shard is ancient but its benchmark shard is fresh: the
    // unit's age is its youngest member's, so both survive an age GC —
    // a live benchmark shard can never lose the records it references.
    set_age(&rpath, Duration::from_secs(30 * 86_400));
    let gc = cache.gc(&GcConfig {
        max_bytes: u64::MAX,
        max_age: Duration::from_secs(7 * 86_400),
    });
    assert_eq!(gc.evicted, 0, "{gc:?}");
    assert!(rpath.exists() && bpath.exists());

    // Once every member is stale the whole unit goes at once: no
    // orphaned benchmark cells, no stranded records.
    set_age(&rpath, Duration::from_secs(30 * 86_400));
    set_age(&bpath, Duration::from_secs(30 * 86_400));
    let gc = cache.gc(&GcConfig {
        max_bytes: u64::MAX,
        max_age: Duration::from_secs(7 * 86_400),
    });
    assert_eq!(gc.evicted, 2, "{gc:?}");
    assert!(!rpath.exists() && !bpath.exists());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gc_evicts_units_oldest_first_under_size_pressure() {
    let dir = test_dir("gc-size");
    let cache = Cache::new(&dir);

    // Four shard units from four distinct families, with distinct ages.
    let mut units = Vec::new();
    for (i, days) in [40u64, 30, 20, 10].iter().enumerate() {
        let cfg = CorpusConfig::small(6, 100 + i as u64);
        let (_, _) = Corpus::build_cached(cfg.clone(), &cache);
        let path = cache.record_shard_path(&cfg, 0).unwrap();
        set_age(&path, Duration::from_secs(days * 86_400));
        units.push(path);
    }
    let sizes: Vec<u64> = units
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len())
        .collect();

    // Budget fits only the two newest units: the two oldest go, in mtime
    // order, and the survivors stay readable.
    let gc = cache.gc(&GcConfig {
        max_bytes: sizes[2] + sizes[3],
        max_age: Duration::from_secs(365 * 86_400),
    });
    assert_eq!((gc.scanned, gc.evicted, gc.kept), (4, 2, 2), "{gc:?}");
    assert_eq!(gc.bytes_evicted, sizes[0] + sizes[1], "{gc:?}");
    assert!(!units[0].exists(), "oldest unit must be evicted first");
    assert!(!units[1].exists());
    assert!(units[2].exists() && units[3].exists());
    assert!(
        Cache::new(&dir)
            .load_record_shard(&CorpusConfig::small(6, 103), 0, 0)
            .is_some(),
        "survivor stays readable"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gc_evicts_legacy_monolithic_artifacts_unconditionally() {
    let dir = test_dir("gc-legacy");
    let cache = Cache::new(&dir);
    let cfg = CorpusConfig::small(10, 2);
    let (_, _) = Corpus::build_cached(cfg.clone(), &cache);
    let shard = cache.record_shard_path(&cfg, 0).unwrap();

    // Pre-v2 monolithic entries: never converted, never kept.
    let legacy_corpus = dir.join("corpus-0123456789abcdef.json");
    let legacy_bench = dir.join("bench-fedcba9876543210.json");
    std::fs::write(&legacy_corpus, "{}").unwrap();
    std::fs::write(&legacy_bench, "{}").unwrap();

    let gc = cache.gc(&GcConfig::default());
    assert!(!legacy_corpus.exists(), "legacy corpus entry must go");
    assert!(!legacy_bench.exists(), "legacy bench entry must go");
    assert!(shard.exists(), "current shards survive: {gc:?}");
    assert_eq!(gc.evicted, 2, "{gc:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_corruption_is_counted_and_recomputed() {
    let dir = test_dir("inject");
    let cfg = CorpusConfig::small(10, 7);

    // A corrupt-rate-1.0 cache truncates every artifact it stores.
    let faulty = Cache::new(&dir).with_faults(FaultConfig::uniform(1.0, 3));
    let (corpus, plan) = Corpus::build_cached(cfg.clone(), &faulty);
    assert!(faulty.corruption_injected() >= 1);
    let path = faulty.record_shard_path(&cfg, 0).unwrap();
    let stored = std::fs::read(&path).unwrap();

    // The artifact really is damaged on disk, and a clean reader detects
    // it: soft miss, corruption counted, no panic — then the rebuild
    // heals the entry and reproduces the same records.
    let reader = Cache::new(&dir);
    assert!(reader.load_record_shard(&cfg, 0, 0).is_none());
    assert_eq!(reader.report().corrupt, 1);
    let (corpus2, _) = Corpus::build_cached(cfg.clone(), &reader);
    assert_eq!(corpus2.records, corpus.records);
    assert!(std::fs::read(&path).unwrap().len() > stored.len());
    assert!(Cache::new(&dir).load_record_shard(&cfg, 0, 0).is_some());
    let _ = plan;

    let _ = std::fs::remove_dir_all(&dir);
}

/// An out-of-memory format's infinite time is written as JSON `null` and
/// must read back infinite, not NaN: the cell compares equal to the one
/// written, and an infinite time still loses every comparison.
#[test]
fn an_infinite_kernel_time_round_trips_through_a_bench_shard() {
    let dir = test_dir("infinite");
    let cache = Cache::new(&dir);
    let cfg = CorpusConfig::small(10, 7);
    let written = vec![
        Some(BenchResult {
            times: SpmvTimes {
                us: [10.0, 5.0, f64::INFINITY, 7.0],
            },
            best: Format::Csr,
        }),
        None,
    ];
    cache.store_bench_shard(&cfg, 0, Gpu::Turing, &[3, 4], &written);
    let path = cache.bench_shard_path(&cfg, 0, Gpu::Turing).unwrap();
    assert!(std::fs::read_to_string(&path)
        .unwrap()
        .contains("[10.0,5.0,null,7.0]"));
    let read = cache.load_bench_shard(&cfg, 0, Gpu::Turing, &[3, 4]);
    assert_eq!(read, Some(written));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn growth_appends_dedup_and_extend_the_context() {
    let dir = test_dir("growth");
    let cfg = CorpusConfig::small(15, 4);
    let cache = Cache::new(&dir);
    let mut ctx = ExperimentContext::build(cfg.clone(), &cache, &mut RunReport::new("seed"));
    let digest_before = ctx.digest();
    let len_before = ctx.corpus.len();

    // Grown records: reuse two real records' stats/features under fresh
    // ids, with benchmark cells for all GPUs.
    let make = |i: usize, id: u64| GrownRecord {
        source_seq: i as u64 + 1,
        record: {
            let mut r = ctx.corpus.records[i].clone();
            r.id = id;
            r
        },
        benches: Gpu::ALL.iter().map(|&g| ctx.bench(g)[i]).collect(),
    };
    let batch = vec![
        make(0, 0xDEAD_0001),
        make(1, 0xDEAD_0002),
        make(1, 0xDEAD_0002),
    ];
    assert_eq!(cache.append_growth(&cfg, &batch), 2, "in-batch dup drops");
    assert_eq!(cache.append_growth(&cfg, &batch), 0, "re-append is a no-op");
    assert_eq!(cache.report().records_ingested, 2);

    // Growth shards are append-only: a second distinct batch lands in a
    // new shard file without touching the first.
    let first_shard = cache.growth_shard_path(&cfg, 0).unwrap();
    let first_bytes = std::fs::read(&first_shard).unwrap();
    assert_eq!(cache.append_growth(&cfg, &[make(2, 0xDEAD_0003)]), 1);
    assert_eq!(std::fs::read(&first_shard).unwrap(), first_bytes);

    // The context extends with exactly the distinct grown records, and
    // the digest moves so experiment/model caches can't serve stale
    // results for the grown corpus.
    let added = ctx.extend_with_growth(&cache);
    assert_eq!(added, 3);
    assert_eq!(ctx.corpus.len(), len_before + 3);
    for per_gpu in &ctx.benches {
        assert_eq!(per_gpu.len(), len_before + 3);
    }
    assert_ne!(ctx.digest(), digest_before);
    // Extending again is a no-op: everything is already present.
    assert_eq!(ctx.extend_with_growth(&cache), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_cache_env_disables_the_layer() {
    // Env-var manipulation stays inside this one test; the test binary
    // runs tests in threads, but no other test in this file reads the
    // variable through `from_env`, and we restore it before returning.
    let dir = test_dir("envoff");
    let cfg = CorpusConfig::small(10, 1);

    std::env::set_var(NO_CACHE_ENV, "1");
    let cache = Cache::from_env(&dir);
    std::env::remove_var(NO_CACHE_ENV);
    assert!(!cache.enabled());
    assert!(cache.dir().is_none());
    assert!(cache.record_shard_path(&cfg, 0).is_none());

    // Stores are no-ops: nothing appears on disk, loads return None, and
    // the counters stay untouched (a disabled layer records no misses).
    let (corpus, plan) = Corpus::build_cached(cfg.clone(), &cache);
    corpus.benchmark_cached(&plan, Gpu::Volta, &cache);
    assert!(!dir.exists(), "disabled cache must not create {dir:?}");
    assert!(cache.load_record_shard(&cfg, 0, 0).is_none());
    let report = cache.report();
    assert!(!report.enabled);
    assert_eq!((report.hits, report.misses, report.stores), (0, 0, 0));
    assert_eq!((report.record_hits, report.record_misses), (0, 0));

    // "0" and unset mean enabled.
    std::env::set_var(NO_CACHE_ENV, "0");
    let on = Cache::from_env(&dir);
    std::env::remove_var(NO_CACHE_ENV);
    assert!(on.enabled());
    assert!(Cache::from_env(&dir).enabled());

    let _ = std::fs::remove_dir_all(&dir);
}
