//! Analytic GPU SpMV performance model.
//!
//! The paper benchmarks CUSP's four SpMV kernels on three NVIDIA GPUs to
//! obtain ground-truth labels (the fastest format per matrix per
//! architecture). No GPU exists in this environment, so this crate replaces
//! the hardware with a first-order analytic model of each kernel on each
//! architecture. The model is *not* meant to predict absolute runtimes of
//! real hardware; it reproduces the mechanisms that the paper identifies as
//! driving format choice, so the induced classification problem has the
//! same structure:
//!
//! * memory-bandwidth-bound streaming of the format's arrays, with the
//!   Table 2 bandwidths;
//! * cache behaviour of the `x`-vector gather (L2 capacity per GPU);
//! * thread-per-row serialization in the scalar CSR kernel, so one huge
//!   row stalls a warp (the paper's 194.85x `mawi` slowdown);
//! * ELL padding blow-up and out-of-memory infeasibility (8 GB Pascal vs
//!   48 GB Turing);
//! * per-kernel launch overhead, which punishes HYB's two-phase execution
//!   on small matrices;
//! * GPU occupancy: small matrices cannot saturate many-SM parts, which
//!   shifts the COO/CSR balance between architectures.
//!
//! Per-architecture kernel coefficients are calibrated so the best-format
//! distribution over the synthetic corpus matches the *shape* of the
//! paper's Table 3 (CSR dominant, ELL second, COO/HYB rare and strongly
//! architecture-dependent). See `DESIGN.md` for the substitution argument.

pub mod bench;
pub mod cost;
pub mod faults;
pub mod model;
pub mod noise;
pub mod spec;

pub use bench::{
    benchmark_corpus, label_distribution, measure_corpus, BenchError, BenchOutcome, BenchResult,
    CorpusBench, FaultCounters, TrialPolicy,
};
pub use cost::{conversion_cost_relative, estimate_benchmark_hours, ConversionCostModel};
pub use faults::{FaultClass, FaultConfig, FaultRates, FAULTS_ENV, FAULT_SEED_ENV};
pub use model::{
    best_format_for, explain_times, explain_workload, predict_times, predict_workload_times,
    SpmvTimes, TimeBreakdown, WorkloadTimes,
};
pub use spec::{pascal_gtx1080, turing_rtx8000, volta_v100, Gpu, GpuSpec, KernelCoeffs};
