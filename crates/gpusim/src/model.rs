//! The per-format SpMV cost model.

use crate::noise::noise_factor;
use crate::spec::GpuSpec;
use serde::{Deserialize, Reader, Serialize, Slot};
use spsel_features::MatrixStats;
use spsel_matrix::{Format, FormatRegistry, Workload};

/// Modeled kernel times in microseconds, indexed by [`Format::index`].
/// Out-of-memory formats are `f64::INFINITY`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SpmvTimes {
    /// Microseconds per format in `Format::ALL` order.
    pub us: [f64; 4],
}

impl Deserialize for SpmvTimes {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        read_times(r, "SpmvTimes").map(|us| SpmvTimes { us })
    }
}

/// Read a times object, `{"us": [...]}`, of type `ty`. JSON has no
/// infinity, so the writer stores an out-of-memory format's
/// `f64::INFINITY` as `null`; a plain `f64` would read that back as NaN,
/// this reads it back as the infinity it was.
fn read_times<const N: usize>(r: &mut Reader<'_>, ty: &str) -> Result<[f64; N], serde::Error> {
    let mut us = Slot::<[Option<f64>; N]>::new();
    r.object(&format!("object for {ty}"), |r, key| match &*key {
        "us" => us.read(r),
        _ => r.skip(),
    })?;
    Ok(us.take("us", ty)?.map(|t| t.unwrap_or(f64::INFINITY)))
}

impl SpmvTimes {
    /// Time of one format.
    pub fn get(&self, f: Format) -> f64 {
        self.us[f.index()]
    }

    /// The fastest *feasible* format, or `None` if every format is
    /// out-of-memory.
    pub fn best(&self) -> Option<Format> {
        let (mut best, mut best_t) = (None, f64::INFINITY);
        for f in Format::ALL {
            let t = self.get(f);
            if t < best_t {
                best_t = t;
                best = Some(f);
            }
        }
        best
    }

    /// Whether any format fits in memory.
    pub fn any_feasible(&self) -> bool {
        self.us.iter().any(|t| t.is_finite())
    }
}

/// Per-format decomposition of a modeled kernel time — the "explaining"
/// part of the reproduction: every prediction can be broken into launch
/// overhead, bandwidth-bound streaming, and (for CSR) the serialization
/// straggler, so a user can see *why* a format wins.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeBreakdown {
    /// Kernel-launch overhead, microseconds.
    pub launch_us: f64,
    /// Bandwidth-bound streaming time, microseconds (for HYB this is the
    /// sum of its ELL and COO phases).
    pub stream_us: f64,
    /// Serialization straggler (scalar-CSR longest row), microseconds;
    /// zero for the other formats.
    pub straggler_us: f64,
    /// Occupancy factor applied to the streaming term (1 = saturated).
    pub utilization: f64,
    /// Whether the format fits in device memory.
    pub feasible: bool,
}

impl TimeBreakdown {
    /// Total noise-free kernel time of this breakdown.
    pub fn total_us(&self) -> f64 {
        if !self.feasible {
            return f64::INFINITY;
        }
        self.launch_us + self.stream_us.max(self.straggler_us)
    }

    fn infeasible() -> Self {
        TimeBreakdown {
            launch_us: 0.0,
            stream_us: 0.0,
            straggler_us: 0.0,
            utilization: 0.0,
            feasible: false,
        }
    }
}

/// Bytes of `x`-vector traffic per gathered nonzero: nearly free when the
/// vector fits in L2, a full 8-byte miss plus partial-line waste otherwise.
fn x_bytes_per_nnz(spec: &GpuSpec, stats: &MatrixStats) -> f64 {
    let vec_bytes = stats.ncols as f64 * 8.0;
    let pressure = (vec_bytes / spec.l2_bytes()).min(1.0);
    8.0 * (0.15 + 0.85 * pressure)
}

/// Occupancy: the fraction of peak bandwidth reachable with `items`
/// independent work items on this GPU. Needs a few items per thread to hide
/// latency.
fn utilization(spec: &GpuSpec, items: f64) -> f64 {
    (items / (spec.max_threads() * 2.0)).clamp(0.02, 1.0)
}

/// Model the four CUSP kernel times for a matrix described by `stats`:
/// [`predict_workload_times`] for SpMV over the default registry.
///
/// `matrix_id` seeds the deterministic measurement noise; pass a stable
/// per-matrix identifier.
pub fn predict_times(spec: &GpuSpec, stats: &MatrixStats, matrix_id: u64) -> SpmvTimes {
    SpmvTimes {
        us: Format::ALL.map(|f| price(spec, stats, matrix_id, f, Workload::SpMv)),
    }
}

// --------------------------------------------------------- per-format model
//
// One breakdown per `(format, workload)`: `spmv_breakdown` prices every
// registered format under SpMV (the paper's four CUSP formats and the
// extended BSR/SELL/DIA), `spmm_breakdown` builds SpMM on top of it, and
// `price` adds the measurement noise.

/// Fixed per-format stream-efficiency factors of the extended formats.
/// They live here (not in `KernelCoeffs`) because `GpuSpec` is serialized
/// inside artifacts: adding coefficients would break old artifacts.
mod zoo {
    /// BSR streams dense blocks — near-perfectly coalesced.
    pub const BSR_FACTOR: f64 = 0.95;
    /// SELL's slice descriptors add a small indirection on top of ELL.
    pub const SELL_FACTOR_VS_ELL: f64 = 1.02;
    /// Fraction of ELL's padding that σ-scoped sorting fails to recover.
    pub const SELL_PAD_RESIDUE: f64 = 0.2;
    /// DIA streams lanes with contiguous x access.
    pub const DIA_FACTOR: f64 = 0.9;
    /// Fraction of x gather traffic a 2x2 block shares across its rows.
    pub const BSR_X_SHARE: f64 = 0.6;
    /// SpMM: COO's k atomic adds per nonzero contend; penalty per column.
    pub const COO_ATOMIC_PER_K: f64 = 0.05;
    /// SpMM: dense-row traffic BSR register tiling avoids.
    pub const BSR_DENSE_SHARE: f64 = 0.55;
}

/// Modeled BSR slab slots (stored values including zero fill) for 2x2
/// blocks. Block fill is driven by column locality: matrices that pack
/// their diagonals densely (`nnz / dia_size` high) cluster into blocks,
/// scattered matrices decay toward one nonzero per 4-slot block.
fn bsr_slab_slots(stats: &MatrixStats) -> f64 {
    let nnz = stats.nnz as f64;
    let locality = if stats.dia_size > 0 {
        (nnz / stats.dia_size as f64).clamp(0.0, 1.0)
    } else {
        1.0
    };
    let fill = 0.25 + 0.75 * locality;
    nnz / fill
}

/// Modeled SELL-C-σ slab slots: the nonzeros plus the fraction of ELL's
/// padding the scoped sort cannot recover.
fn sell_slab_slots(stats: &MatrixStats) -> f64 {
    let nnz = stats.nnz as f64;
    nnz + zoo::SELL_PAD_RESIDUE * (stats.ell_size as f64 - nnz).max(0.0)
}

/// The diagonal-count budget DIA conversion accepts (kept in lockstep
/// with the registry's `DiaSpec`). A shape whose dimensions sum past
/// `usize::MAX` (stats rebuilt from an inline feature vector) saturates.
fn dia_limit(stats: &MatrixStats) -> usize {
    (stats.nrows.saturating_add(stats.ncols) / 4).max(16)
}

/// Noise-free SpMV breakdown of one format.
fn spmv_breakdown(spec: &GpuSpec, stats: &MatrixStats, format: Format) -> TimeBreakdown {
    let c = &spec.coeffs;
    let bw = spec.bytes_per_us();
    let xb = x_bytes_per_nnz(spec, stats);
    let (nnz, nrows) = (stats.nnz as f64, stats.nrows as f64);
    let mem_cap = spec.memory_bytes() * c.mem_fraction;
    // A CUSP format must fit its `MatrixStats::format_bytes` entry; the
    // extended formats check their own storage below.
    if format.index() < Format::COUNT && stats.format_bytes()[format.index()] as f64 > mem_cap {
        return TimeBreakdown::infeasible();
    }
    match format {
        // COO: segmented reduction over nnz items — oblivious to row
        // imbalance, parallel over nonzeros (good occupancy even for
        // few-row matrices), but an extra pass and atomics make it
        // stream-inefficient.
        Format::Coo => {
            let bytes = nnz * 16.0 + nnz * xb;
            let util = utilization(spec, nnz / 32.0);
            TimeBreakdown {
                launch_us: 2.0 * c.launch_us,
                stream_us: bytes * c.coo_factor / (bw * util),
                straggler_us: 0.0,
                utilization: util,
                feasible: true,
            }
        }
        // CSR (scalar kernel): one thread per row. Streaming term plus a
        // serialization term — the warp whose thread owns the longest row
        // finishes last, each of its loads latency-bound.
        Format::Csr => {
            let bytes = nnz * 12.0 + nrows * 16.0 + nnz * xb;
            // Divergence: the warp finishes with its longest row, so the
            // max/mean row-length ratio degrades effective bandwidth.
            let divergence = if stats.nnz_mean > 0.0 {
                (stats.nnz_max as f64 / (stats.nnz_mean + 1.0)).clamp(1.0, 32.0)
            } else {
                1.0
            };
            let penalty = c.csr_penalty * (1.0 + c.csr_divergence * (divergence - 1.0));
            let util = utilization(spec, nrows);
            TimeBreakdown {
                launch_us: c.launch_us,
                stream_us: bytes * penalty / (bw * util),
                straggler_us: stats.nnz_max as f64 * c.serial_ns / 1000.0,
                utilization: util,
                feasible: true,
            }
        }
        // ELL: fully coalesced streaming of the padded slab; pays for
        // padding in bandwidth and can exhaust memory.
        Format::Ell => {
            let bytes = stats.ell_size as f64 * 12.0 + nnz * xb;
            let util = utilization(spec, nrows);
            TimeBreakdown {
                launch_us: c.launch_us,
                stream_us: bytes * c.ell_factor / (bw * util),
                straggler_us: 0.0,
                utilization: util,
                feasible: true,
            }
        }
        // HYB: ELL phase plus COO phase plus extra launches.
        Format::Hyb => {
            let ell_bytes = stats.hyb_ell_size as f64 * 12.0 + stats.hyb_ell_nnz as f64 * xb;
            let coo_nnz = stats.hyb_coo_nnz as f64;
            let coo_bytes = coo_nnz * (16.0 + xb);
            let util = utilization(spec, nrows);
            let ell_t = ell_bytes * c.ell_factor / (bw * util);
            let coo_t = if coo_nnz > 0.0 {
                coo_bytes * c.coo_factor / (bw * utilization(spec, (coo_nnz / 32.0).max(1.0)))
            } else {
                0.0
            };
            TimeBreakdown {
                launch_us: (1.0 + c.hyb_extra_launches) * c.launch_us,
                stream_us: ell_t + coo_t,
                straggler_us: 0.0,
                utilization: util,
                feasible: true,
            }
        }
        Format::Bsr => {
            // 2x2 blocks: values slab + one u32 per block + block row
            // pointers; the two rows of a block share their x gathers.
            let slab = bsr_slab_slots(stats);
            let store = slab * 8.0 + (slab / 4.0) * 4.0 + (nrows / 2.0 + 1.0) * 8.0;
            if store > mem_cap {
                return TimeBreakdown::infeasible();
            }
            let bytes = store + nnz * xb * zoo::BSR_X_SHARE;
            let util = utilization(spec, (nrows / 2.0).max(1.0));
            TimeBreakdown {
                launch_us: c.launch_us,
                stream_us: bytes * zoo::BSR_FACTOR / (bw * util),
                straggler_us: 0.0,
                utilization: util,
                feasible: true,
            }
        }
        Format::Sell => {
            // ELL's coalesced slab walk over a σ-compacted slab, plus the
            // row permutation on the output side.
            let slab = sell_slab_slots(stats);
            let store = slab * 12.0 + nrows * 4.0;
            if store > mem_cap {
                return TimeBreakdown::infeasible();
            }
            let bytes = store + nnz * xb + nrows * 8.0;
            let util = utilization(spec, nrows);
            TimeBreakdown {
                launch_us: c.launch_us,
                stream_us: bytes * c.ell_factor * zoo::SELL_FACTOR_VS_ELL / (bw * util),
                straggler_us: 0.0,
                utilization: util,
                feasible: true,
            }
        }
        Format::Dia => {
            let store = stats.dia_size as f64 * 8.0;
            if stats.diagonals > dia_limit(stats) || store > mem_cap {
                return TimeBreakdown::infeasible();
            }
            // Lane-major streaming: x is read contiguously per lane, so
            // the gather is line-efficient even when x misses L2.
            let bytes = store + stats.dia_size as f64 * 2.0 + nrows * 8.0;
            let util = utilization(spec, nrows);
            TimeBreakdown {
                launch_us: c.launch_us,
                stream_us: bytes * zoo::DIA_FACTOR / (bw * util),
                straggler_us: 0.0,
                utilization: util,
                feasible: true,
            }
        }
    }
}

/// Bytes of dense-operand traffic per (nonzero, column) pair in SpMM:
/// the `k`-wide dense row is contiguous, so even an L2 miss streams whole
/// lines instead of wasting them on an 8-byte gather.
fn dense_bytes_per_nnz_col(spec: &GpuSpec, stats: &MatrixStats, k: usize) -> f64 {
    let operand_bytes = stats.ncols as f64 * k as f64 * 8.0;
    let pressure = (operand_bytes / spec.l2_bytes()).min(1.0);
    2.0 + 6.0 * pressure
}

/// Noise-free SpMM (`k` dense columns) breakdown for any registered
/// format, built from the same launch/stream/straggler decomposition as
/// SpMV: the matrix is streamed once, the dense operand `k`-wide.
fn spmm_breakdown(spec: &GpuSpec, stats: &MatrixStats, format: Format, k: usize) -> TimeBreakdown {
    let base = spmv_breakdown(spec, stats, format);
    if !base.feasible {
        return base;
    }
    let c = &spec.coeffs;
    let bw = spec.bytes_per_us();
    let kf = k as f64;
    let xk = dense_bytes_per_nnz_col(spec, stats, k);
    let (nnz, nrows) = (stats.nnz as f64, stats.nrows as f64);
    let out_bytes = nrows * kf * 8.0;
    let (matrix_bytes, eff, items, extra_launches) = match format {
        // COO performs k atomic adds per nonzero; contention grows with k.
        Format::Coo => (
            nnz * 16.0,
            c.coo_factor * (1.0 + zoo::COO_ATOMIC_PER_K * kf),
            nnz / 32.0,
            1.0,
        ),
        Format::Csr => {
            let divergence = if stats.nnz_mean > 0.0 {
                (stats.nnz_max as f64 / (stats.nnz_mean + 1.0)).clamp(1.0, 32.0)
            } else {
                1.0
            };
            let penalty = c.csr_penalty * (1.0 + c.csr_divergence * (divergence - 1.0));
            (nnz * 12.0 + nrows * 16.0, penalty, nrows, 0.0)
        }
        Format::Ell => (stats.ell_size as f64 * 12.0, c.ell_factor, nrows, 0.0),
        Format::Hyb => {
            // Blend: ELL phase plus a COO tail with the atomic-k penalty.
            let tail = stats.hyb_coo_nnz as f64;
            let bytes = stats.hyb_ell_size as f64 * 12.0 + tail * 16.0;
            let frac = if nnz > 0.0 { tail / nnz } else { 0.0 };
            let eff = c.ell_factor * (1.0 - frac)
                + c.coo_factor * (1.0 + zoo::COO_ATOMIC_PER_K * kf) * frac;
            (bytes, eff, nrows, c.hyb_extra_launches)
        }
        // Register tiling: a block's dense rows live in registers across
        // its columns, shaving dense traffic.
        Format::Bsr => {
            let slab = bsr_slab_slots(stats);
            (
                slab * 8.0 + (slab / 4.0) * 4.0,
                zoo::BSR_FACTOR,
                (nrows / 2.0).max(1.0),
                0.0,
            )
        }
        Format::Sell => (
            sell_slab_slots(stats) * 12.0,
            c.ell_factor * zoo::SELL_FACTOR_VS_ELL,
            nrows,
            0.0,
        ),
        Format::Dia => (stats.dia_size as f64 * 8.0, zoo::DIA_FACTOR, nrows, 0.0),
    };
    let dense_share = match format {
        Format::Bsr => zoo::BSR_DENSE_SHARE,
        _ => 1.0,
    };
    let bytes = matrix_bytes + nnz * kf * xk * dense_share + out_bytes;
    let util = utilization(spec, items * kf.min(4.0));
    TimeBreakdown {
        launch_us: (1.0 + extra_launches) * c.launch_us,
        stream_us: bytes * eff / (bw * util),
        // The straggler row's loads each feed k register FMAs: the
        // serialized chain is load-bound, so it does not scale with k.
        straggler_us: base.straggler_us,
        utilization: util,
        feasible: true,
    }
}

/// Noise-free breakdown of one `(format, workload)` kernel.
pub fn explain_workload(
    spec: &GpuSpec,
    stats: &MatrixStats,
    format: Format,
    workload: Workload,
) -> TimeBreakdown {
    match workload {
        Workload::SpMv => spmv_breakdown(spec, stats, format),
        Workload::SpMm { k } => spmm_breakdown(spec, stats, format, k),
    }
}

/// Modeled kernel times for every format of a registry under one
/// workload, indexed by [`Format::index`]. Formats outside the registry
/// are `f64::INFINITY`, same as out-of-memory ones.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkloadTimes {
    /// Microseconds per stable format id (`Format::UNIVERSE` order).
    pub us: [f64; Format::UNIVERSE_COUNT],
}

impl Deserialize for WorkloadTimes {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        read_times(r, "WorkloadTimes").map(|us| WorkloadTimes { us })
    }
}

impl WorkloadTimes {
    /// Time of one format.
    pub fn get(&self, f: Format) -> f64 {
        self.us[f.index()]
    }

    /// The fastest feasible registered format.
    pub fn best(&self) -> Option<Format> {
        let (mut best, mut best_t) = (None, f64::INFINITY);
        for f in Format::UNIVERSE {
            let t = self.get(f);
            if t < best_t {
                best_t = t;
                best = Some(f);
            }
        }
        best
    }
}

/// The modeled time of one `(format, workload)` kernel: its noise-free
/// total times the deterministic measurement noise of its lane, or
/// `f64::INFINITY` when it does not fit in memory.
///
/// Noise lanes: SpMV uses the `(matrix, format, gpu)` lanes, while each
/// SpMM `k` draws from its own disjoint lane block.
fn price(
    spec: &GpuSpec,
    stats: &MatrixStats,
    matrix_id: u64,
    format: Format,
    workload: Workload,
) -> f64 {
    let t = explain_workload(spec, stats, format, workload).total_us();
    if !t.is_finite() {
        return t;
    }
    let lane = format.index() + 8 * workload.lane() as usize;
    t * noise_factor(matrix_id, lane, spec.gpu as usize)
}

impl From<&SpmvTimes> for WorkloadTimes {
    /// The four CUSP times in their slots; every other format is
    /// `f64::INFINITY`, as if outside the registry.
    fn from(times: &SpmvTimes) -> Self {
        let mut us = [f64::INFINITY; Format::UNIVERSE_COUNT];
        for f in Format::ALL {
            us[f.index()] = times.get(f);
        }
        WorkloadTimes { us }
    }
}

/// Model the kernel times of every format in `registry` for `workload`.
pub fn predict_workload_times(
    spec: &GpuSpec,
    stats: &MatrixStats,
    matrix_id: u64,
    registry: &FormatRegistry,
    workload: Workload,
) -> WorkloadTimes {
    let mut us = [f64::INFINITY; Format::UNIVERSE_COUNT];
    for f in registry.formats() {
        us[f.index()] = price(spec, stats, matrix_id, f, workload);
    }
    WorkloadTimes { us }
}

/// The fastest feasible format of `registry` for `workload`.
pub fn best_format_for(
    spec: &GpuSpec,
    stats: &MatrixStats,
    matrix_id: u64,
    registry: &FormatRegistry,
    workload: Workload,
) -> Option<Format> {
    predict_workload_times(spec, stats, matrix_id, registry, workload).best()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{pascal_gtx1080, turing_rtx8000, volta_v100};
    use spsel_matrix::{gen, CsrMatrix};

    fn stats_of(coo: &spsel_matrix::CooMatrix) -> MatrixStats {
        MatrixStats::from_csr(&CsrMatrix::from(coo))
    }

    #[test]
    fn all_times_positive_and_finite_for_modest_matrix() {
        let s = stats_of(&gen::random_uniform(5000, 5000, 10, 1));
        for gpu in [pascal_gtx1080(), volta_v100(), turing_rtx8000()] {
            let t = predict_times(&gpu, &s, 7);
            for f in Format::ALL {
                assert!(
                    t.get(f).is_finite() && t.get(f) > 0.0,
                    "{f} on {}",
                    gpu.model
                );
            }
        }
    }

    #[test]
    fn uniform_rows_favor_ell_over_csr() {
        // Large, perfectly uniform matrix: ELL has zero padding and beats
        // the penalized CSR stream.
        let s = MatrixStats::from_row_counts(200_000, 200_000, &vec![16usize; 200_000]);
        for gpu in [pascal_gtx1080(), volta_v100()] {
            let t = predict_times(&gpu, &s, 3);
            assert!(
                t.get(Format::Ell) < t.get(Format::Csr),
                "{}: ELL {} !< CSR {}",
                gpu.model,
                t.get(Format::Ell),
                t.get(Format::Csr)
            );
        }
        // Turing's calibrated ELL coefficient makes short uniform rows a
        // borderline case there (matching its low ELL share in Table 3);
        // require only that the two formats are competitive.
        let t = predict_times(&turing_rtx8000(), &s, 3);
        let ratio = t.get(Format::Ell) / t.get(Format::Csr);
        assert!(ratio < 1.25, "Turing ELL/CSR ratio {ratio}");
    }

    #[test]
    fn heavy_padding_favors_csr_over_ell() {
        // Mildly irregular rows: max 60 vs mean ~6 means ELL stores 10x.
        let mut counts = vec![5usize; 100_000];
        for i in (0..100_000).step_by(50) {
            counts[i] = 60;
        }
        let s = MatrixStats::from_row_counts(100_000, 100_000, &counts);
        let t = predict_times(&turing_rtx8000(), &s, 11);
        assert!(t.get(Format::Csr) < t.get(Format::Ell));
    }

    #[test]
    fn mawi_like_skew_makes_csr_catastrophic() {
        // One row with 30M nonzeros (the `mawi` network traces have
        // multi-million-degree rows): the scalar CSR kernel serializes it
        // in a single thread.
        let mut counts = vec![3usize; 2_000_000];
        counts[1234] = 30_000_000;
        let s = MatrixStats::from_row_counts(2_000_000, 2_000_000, &counts);
        let t = predict_times(&turing_rtx8000(), &s, 5);
        let best = t.best().unwrap();
        assert_ne!(best, Format::Csr);
        let slowdown = t.get(Format::Csr) / t.get(best);
        assert!(
            slowdown > 15.0,
            "expected order-of-magnitude CSR slowdown, got {slowdown}"
        );
    }

    #[test]
    fn tiny_matrix_prefers_single_kernel_formats() {
        // Launch overhead dominates: HYB's extra kernels must lose.
        let s = MatrixStats::from_row_counts(200, 200, &vec![4usize; 200]);
        for gpu in [pascal_gtx1080(), volta_v100(), turing_rtx8000()] {
            let t = predict_times(&gpu, &s, 2);
            let best = t.best().unwrap();
            assert_ne!(best, Format::Hyb, "{}", gpu.model);
        }
    }

    #[test]
    fn huge_ell_oom_on_pascal_feasible_on_turing() {
        // ELL slab of 12 bytes * 400M slots = 4.8 GB: above Pascal's
        // 8 GB * 0.45 budget, below Turing's 48 GB * 0.45. CSR stays at
        // ~2.4 GB, under Pascal's budget.
        let mut counts = vec![100usize; 2_000_000];
        counts[0] = 200; // widen the slab: 2M rows x 200 = 400M slots
        let s = MatrixStats::from_row_counts(2_000_000, 2_000_000, &counts);
        assert_eq!(s.ell_size, 400_000_000);
        let tp = predict_times(&pascal_gtx1080(), &s, 1);
        let tt = predict_times(&turing_rtx8000(), &s, 1);
        assert!(tp.get(Format::Ell).is_infinite());
        assert!(tt.get(Format::Ell).is_finite());
        // CSR remains feasible on Pascal.
        assert!(tp.get(Format::Csr).is_finite());
    }

    #[test]
    fn best_never_returns_infeasible() {
        let mut counts = vec![2usize; 100];
        counts[0] = 50;
        let s = MatrixStats::from_row_counts(100, 100, &counts);
        for gpu in [pascal_gtx1080(), volta_v100(), turing_rtx8000()] {
            let t = predict_times(&gpu, &s, 9);
            let b = t.best().unwrap();
            assert!(t.get(b).is_finite());
        }
    }

    #[test]
    fn noise_preserves_clear_winners() {
        // The same matrix under different ids keeps its best format when
        // the gap is large.
        let mut counts = vec![3usize; 500_000];
        counts[0] = 800_000;
        let s = MatrixStats::from_row_counts(500_000, 500_000, &counts);
        let spec = volta_v100();
        let first = predict_times(&spec, &s, 0).best().unwrap();
        for id in 1..50 {
            assert_eq!(predict_times(&spec, &s, id).best().unwrap(), first);
        }
    }

    #[test]
    fn explain_matches_predict_up_to_noise() {
        let s = stats_of(&gen::power_law(1000, 1000, 2, 2.3, 300, 7));
        for gpu in [pascal_gtx1080(), volta_v100(), turing_rtx8000()] {
            let breakdown = Format::ALL.map(|f| explain_workload(&gpu, &s, f, Workload::SpMv));
            let times = predict_times(&gpu, &s, 42);
            for f in Format::ALL {
                let b = breakdown[f.index()];
                let t = times.get(f);
                assert_eq!(b.feasible, t.is_finite());
                if b.feasible {
                    // Noise is a few percent multiplicative.
                    let ratio = t / b.total_us();
                    assert!((0.85..=1.18).contains(&ratio), "{f}: ratio {ratio}");
                    assert!(b.launch_us > 0.0);
                    assert!(b.stream_us > 0.0);
                    assert!((0.0..=1.0).contains(&b.utilization));
                }
            }
            // Only CSR carries a straggler term.
            assert_eq!(breakdown[Format::Coo.index()].straggler_us, 0.0);
            assert_eq!(breakdown[Format::Ell.index()].straggler_us, 0.0);
            assert!(breakdown[Format::Csr.index()].straggler_us > 0.0);
        }
    }

    #[test]
    fn straggler_explains_hub_row_losses() {
        // For a hub matrix the CSR breakdown must be straggler-dominated —
        // the model's explanation of the mawi anecdote.
        let mut counts = vec![3usize; 2_000_000];
        counts[0] = 30_000_000;
        let s = MatrixStats::from_row_counts(2_000_000, 2_000_000, &counts);
        let csr = explain_workload(&turing_rtx8000(), &s, Format::Csr, Workload::SpMv);
        assert!(csr.straggler_us > 10.0 * csr.stream_us);
    }

    #[test]
    fn default_registry_spmv_is_bit_identical_to_predict_times() {
        // The whole point of the registry refactor: the 4-format SpMV
        // path must reproduce the historical model exactly — same
        // formulas, same noise lanes, same bits.
        let reg = FormatRegistry::cusp_default();
        let mats = [
            stats_of(&gen::random_uniform(3000, 3000, 9, 1)),
            stats_of(&gen::power_law(1500, 1500, 2, 2.2, 400, 5)),
            stats_of(&gen::banded(2000, 6, 0.8, 9)),
        ];
        for gpu in [pascal_gtx1080(), volta_v100(), turing_rtx8000()] {
            for (id, s) in mats.iter().enumerate() {
                let old = predict_times(&gpu, s, id as u64 * 37 + 1);
                let new = predict_workload_times(&gpu, s, id as u64 * 37 + 1, &reg, Workload::SpMv);
                for f in Format::ALL {
                    assert_eq!(
                        old.get(f).to_bits(),
                        new.get(f).to_bits(),
                        "{f} diverged on {}",
                        gpu.model
                    );
                }
                for f in [Format::Bsr, Format::Sell, Format::Dia] {
                    assert!(new.get(f).is_infinite(), "{f} outside the default registry");
                }
                assert_eq!(old.best(), new.best());
            }
        }
    }

    #[test]
    fn extended_formats_produce_finite_spmv_times() {
        let s = stats_of(&gen::banded(4000, 5, 0.9, 3));
        let reg = FormatRegistry::full();
        let t = predict_workload_times(&volta_v100(), &s, 11, &reg, Workload::SpMv);
        for f in Format::UNIVERSE {
            assert!(t.get(f).is_finite() && t.get(f) > 0.0, "{f}");
        }
    }

    #[test]
    fn dia_is_infeasible_for_scattered_matrices() {
        // Power-law structure occupies nearly every diagonal: the model
        // must reject DIA exactly like the registry's conversion does.
        let s = stats_of(&gen::power_law(800, 800, 2, 2.1, 300, 7));
        assert!(s.diagonals > dia_limit(&s));
        let b = explain_workload(&volta_v100(), &s, Format::Dia, Workload::SpMv);
        assert!(!b.feasible);
    }

    #[test]
    fn dia_prices_a_usize_max_shape_without_overflow() {
        // Stats rebuilt from an inline feature vector can claim any
        // shape; the DIA budget saturates instead of overflowing.
        let mut s = MatrixStats::from_row_counts(0, 0, &[]);
        s.nrows = usize::MAX;
        s.ncols = usize::MAX;
        assert_eq!(dia_limit(&s), usize::MAX / 4);
        let b = explain_workload(&volta_v100(), &s, Format::Dia, Workload::SpMv);
        assert!(b.feasible, "no diagonals: within the budget");
        let t = predict_workload_times(
            &volta_v100(),
            &s,
            1,
            &FormatRegistry::full(),
            Workload::SpMv,
        );
        assert!(t.get(Format::Dia).is_finite());
    }

    #[test]
    fn spmm_amortizes_matrix_traffic_per_column() {
        // Per dense column, SpMM must be cheaper than SpMV: the matrix is
        // streamed once for k columns.
        let s = stats_of(&gen::random_uniform(5000, 5000, 10, 2));
        for f in [Format::Csr, Format::Ell] {
            let mv = explain_workload(&volta_v100(), &s, f, Workload::SpMv).total_us();
            let mm = explain_workload(&volta_v100(), &s, f, Workload::SpMm { k: 32 }).total_us();
            assert!(mm < 32.0 * mv, "{f}: {mm} !< 32 * {mv}");
            assert!(mm > mv, "{f}: k=32 cannot be cheaper than one SpMV");
        }
    }

    #[test]
    fn coo_atomics_hurt_at_high_k() {
        // COO's relative standing must degrade as k grows: each nonzero
        // issues k atomic adds while CSR accumulates in registers.
        let s = stats_of(&gen::random_uniform(4000, 4000, 8, 4));
        let spec = volta_v100();
        let ratio_at = |k: usize| {
            let coo = explain_workload(&spec, &s, Format::Coo, Workload::SpMm { k }).total_us();
            let csr = explain_workload(&spec, &s, Format::Csr, Workload::SpMm { k }).total_us();
            coo / csr
        };
        assert!(ratio_at(32) > ratio_at(4));
        assert!(ratio_at(4) > ratio_at(1));
    }

    #[test]
    fn workloads_disagree_on_some_matrices() {
        // The cross-workload disagreement table must have nonzero rows:
        // over a family sweep, at least one matrix picks different
        // formats under SpMV and SpMM-32 in the extended registry.
        let reg = FormatRegistry::extended();
        let spec = turing_rtx8000();
        let mut disagree = 0;
        for seed in 0..40u64 {
            let s = match seed % 4 {
                0 => stats_of(&gen::random_uniform(2000, 2000, 6, seed)),
                1 => stats_of(&gen::banded(3000, 4, 0.8, seed)),
                2 => stats_of(&gen::power_law(1200, 1200, 2, 2.3, 400, seed)),
                _ => stats_of(&gen::row_skewed(1500, 1500, 2, 90, 0.1, seed)),
            };
            let a = best_format_for(&spec, &s, seed, &reg, Workload::SpMv);
            let b = best_format_for(&spec, &s, seed, &reg, Workload::SpMm { k: 32 });
            if a != b {
                disagree += 1;
            }
        }
        assert!(disagree > 0, "no matrix changed label across workloads");
    }

    #[test]
    fn spmm_noise_lanes_are_disjoint_from_spmv() {
        let reg = FormatRegistry::cusp_default();
        let s = stats_of(&gen::random_uniform(3000, 3000, 9, 1));
        let spec = volta_v100();
        let mv = predict_workload_times(&spec, &s, 5, &reg, Workload::SpMv);
        let mm4 = predict_workload_times(&spec, &s, 5, &reg, Workload::SpMm { k: 4 });
        let mm32 = predict_workload_times(&spec, &s, 5, &reg, Workload::SpMm { k: 32 });
        // Same breakdown would still noise differently per workload.
        for f in Format::ALL {
            let n_mv = mv.get(f) / explain_workload(&spec, &s, f, Workload::SpMv).total_us();
            let n4 =
                mm4.get(f) / explain_workload(&spec, &s, f, Workload::SpMm { k: 4 }).total_us();
            let n32 =
                mm32.get(f) / explain_workload(&spec, &s, f, Workload::SpMm { k: 32 }).total_us();
            assert_ne!(n_mv.to_bits(), n4.to_bits(), "{f}");
            assert_ne!(n4.to_bits(), n32.to_bits(), "{f}");
        }
    }

    #[test]
    fn a_null_time_reads_back_infinite() {
        let read = |json: &str| SpmvTimes::deserialize(&mut Reader::new(json));
        let t = read(r#"{"us":[10.0,5.0,null,7.0]}"#).unwrap();
        assert_eq!(t.us, [10.0, 5.0, f64::INFINITY, 7.0]);
        let mut us = ["null"; Format::UNIVERSE_COUNT];
        us[1] = "3.5";
        let json = format!(r#"{{"us":[{}]}}"#, us.join(","));
        let w = WorkloadTimes::deserialize(&mut Reader::new(&json)).unwrap();
        assert_eq!(w.us[1], 3.5);
        assert_eq!(w.best(), Format::UNIVERSE.get(1).copied());
        // Anything else reads as a derived reader would.
        assert_eq!(
            read("[1]").unwrap_err().to_string(),
            "expected object for SpmvTimes, found array"
        );
        assert_eq!(
            read(r#"{"x":1}"#).unwrap_err().to_string(),
            "missing field `us` in SpmvTimes"
        );
        assert!(read(r#"{"us":[1.0,"a",2.0,3.0]}"#).is_err());
    }
}
