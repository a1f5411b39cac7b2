//! Offline stand-in for `rayon` with *real* data parallelism.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the parallel-iterator subset it uses. Unlike a serial polyfill, this
//! implementation fans work out over `std::thread::scope` workers that pull
//! index blocks from a shared atomic counter and write results into
//! **index-addressed output slots** — so the result of every parallel
//! pipeline is bit-identical to its serial evaluation, regardless of thread
//! count or scheduling order. That property is what lets the experiment
//! pipeline cache and replay results deterministically.
//!
//! Supported surface: `par_iter` / `par_iter_mut` on slices,
//! `into_par_iter` on `Range<usize>`, and the `map` / `filter_map` / `zip` /
//! `enumerate` / `for_each` / `collect` / `sum` / `min` / `max` combinators.
//! `set_serial(true)` (or the `SPSEL_SERIAL=1` environment variable) forces
//! single-threaded execution, which the determinism tests use to prove
//! parallel == serial.

use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

static FORCE_SERIAL: AtomicBool = AtomicBool::new(false);

/// Worker-count override: 0 = unset (fall back to `SPSEL_THREADS`, then
/// hardware parallelism).
static FORCE_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Force all parallel drivers onto the calling thread (used by the
/// determinism tests; also controllable via `SPSEL_SERIAL=1`).
pub fn set_serial(on: bool) {
    FORCE_SERIAL.store(on, Ordering::SeqCst);
}

/// Whether serial execution is currently forced.
pub fn serial_forced() -> bool {
    FORCE_SERIAL.load(Ordering::SeqCst)
        || std::env::var_os("SPSEL_SERIAL").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Pin the worker count (`None` restores the default). The thread-sweep
/// tests use this to prove output is bit-identical at any width; the
/// `SPSEL_THREADS` environment variable offers the same control externally.
pub fn set_threads(n: Option<usize>) {
    FORCE_THREADS.store(n.unwrap_or(0), Ordering::SeqCst);
}

/// Worker count the drivers will use: `set_serial` wins, then
/// `set_threads`, then `SPSEL_THREADS`, then hardware parallelism.
pub fn current_num_threads() -> usize {
    if serial_forced() {
        return 1;
    }
    let forced = FORCE_THREADS.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Some(n) = std::env::var_os("SPSEL_THREADS")
        .and_then(|v| v.into_string().ok())
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pointer wrapper so workers can write disjoint output slots.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

fn block_size(n: usize, threads: usize) -> usize {
    (n / (threads * 8)).clamp(1, 1024)
}

/// Evaluate `it` into a `Vec` with `out[i] == it.at(i)` for every `i` —
/// identical to serial evaluation by construction.
fn drive_collect<I: ParallelIterator>(it: &I) -> Vec<I::Item> {
    let n = it.par_len();
    let threads = current_num_threads().min(n.max(1));
    if threads <= 1 || n < 2 {
        return (0..n).map(|i| it.at(i)).collect();
    }
    let block = block_size(n, threads);
    let mut out: Vec<MaybeUninit<I::Item>> = Vec::with_capacity(n);
    // SAFETY: every slot is written exactly once below before being read.
    #[allow(clippy::uninit_vec)]
    unsafe {
        out.set_len(n);
    }
    let next = AtomicUsize::new(0);
    let ptr = SendPtr(out.as_mut_ptr());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let next = &next;
            let it = &it;
            scope.spawn(move || {
                // Capture the whole wrapper, not the raw-pointer field
                // (edition-2021 closures capture disjoint fields).
                let ptr = ptr;
                loop {
                    let start = next.fetch_add(block, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + block).min(n);
                    for i in start..end {
                        let v = it.at(i);
                        // SAFETY: slot i is owned by exactly this worker.
                        unsafe { ptr.0.add(i).write(MaybeUninit::new(v)) };
                    }
                }
            });
        }
    });
    // SAFETY: the scope joined, so all n slots are initialized.
    unsafe {
        let mut out = ManuallyDrop::new(out);
        Vec::from_raw_parts(out.as_mut_ptr() as *mut I::Item, n, out.capacity())
    }
}

fn drive_for_each<I, F>(it: &I, f: &F)
where
    I: ParallelIterator,
    F: Fn(I::Item) + Send + Sync,
{
    let n = it.par_len();
    let threads = current_num_threads().min(n.max(1));
    if threads <= 1 || n < 2 {
        for i in 0..n {
            f(it.at(i));
        }
        return;
    }
    let block = block_size(n, threads);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let next = &next;
            let it = &it;
            scope.spawn(move || loop {
                let start = next.fetch_add(block, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + block).min(n);
                for i in start..end {
                    f(it.at(i));
                }
            });
        }
    });
}

/// A random-access parallel pipeline: `at(i)` computes element `i`
/// independently of every other index.
pub trait ParallelIterator: Send + Sync + Sized {
    /// Item type produced at each index.
    type Item: Send;

    /// Number of elements.
    fn par_len(&self) -> usize;

    /// Compute element `i`.
    fn at(&self, i: usize) -> Self::Item;

    /// Map each element through `f`.
    fn map<F, R>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Send + Sync,
        R: Send,
    {
        Map { base: self, f }
    }

    /// Map-and-filter; the relative order of kept elements matches serial.
    fn filter_map<F, R>(self, f: F) -> FilterMap<Self, F>
    where
        F: Fn(Self::Item) -> Option<R> + Send + Sync,
        R: Send,
    {
        FilterMap { base: self, f }
    }

    /// Pair with another pipeline (lengths are truncated to the shorter).
    fn zip<J: ParallelIterator>(self, other: J) -> Zip<Self, J> {
        Zip { a: self, b: other }
    }

    /// Attach indices.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Run `f` on every element.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync,
    {
        drive_for_each(&self, &f);
    }

    /// Collect into a container (order matches serial evaluation).
    fn collect<C: From<Vec<Self::Item>>>(self) -> C {
        C::from(drive_collect(&self))
    }

    /// Sum elements. Accumulation happens in index order, so floating-point
    /// results are bit-identical to serial.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item>,
    {
        drive_collect(&self).into_iter().sum()
    }

    /// Minimum element.
    fn min(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        drive_collect(&self).into_iter().min()
    }

    /// Maximum element.
    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        drive_collect(&self).into_iter().max()
    }

    /// Count elements.
    fn count(self) -> usize {
        self.par_len()
    }
}

/// See [`ParallelIterator::map`].
pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I, F, R> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    F: Fn(I::Item) -> R + Send + Sync,
    R: Send,
{
    type Item = R;
    fn par_len(&self) -> usize {
        self.base.par_len()
    }
    fn at(&self, i: usize) -> R {
        (self.f)(self.base.at(i))
    }
}

/// See [`ParallelIterator::zip`].
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    fn par_len(&self) -> usize {
        self.a.par_len().min(self.b.par_len())
    }
    fn at(&self, i: usize) -> Self::Item {
        (self.a.at(i), self.b.at(i))
    }
}

/// See [`ParallelIterator::enumerate`].
pub struct Enumerate<I> {
    base: I,
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);
    fn par_len(&self) -> usize {
        self.base.par_len()
    }
    fn at(&self, i: usize) -> Self::Item {
        (i, self.base.at(i))
    }
}

/// See [`ParallelIterator::filter_map`]. Not random-access (the output
/// length is data-dependent), so it exposes only draining operations.
pub struct FilterMap<I, F> {
    base: I,
    f: F,
}

impl<I, F, R> FilterMap<I, F>
where
    I: ParallelIterator,
    F: Fn(I::Item) -> Option<R> + Send + Sync,
    R: Send,
{
    /// Collect kept elements in serial order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        let FilterMap { base, f } = self;
        let opts = drive_collect(&Map { base, f });
        C::from(opts.into_iter().flatten().collect::<Vec<R>>())
    }

    /// Count kept elements.
    pub fn count(self) -> usize {
        let FilterMap { base, f } = self;
        drive_collect(&Map { base, f })
            .into_iter()
            .flatten()
            .count()
    }
}

/// Parallel shared-slice iterator.
pub struct ParSlice<'a, T: Sync> {
    s: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for ParSlice<'a, T> {
    type Item = &'a T;
    fn par_len(&self) -> usize {
        self.s.len()
    }
    fn at(&self, i: usize) -> &'a T {
        &self.s[i]
    }
}

/// `.par_iter()` on slices (and, via deref, `Vec`).
pub trait IntoParallelRefIterator<'a> {
    /// The borrowed parallel iterator type.
    type Iter: ParallelIterator;
    /// Borrowing parallel iterator.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Iter = ParSlice<'a, T>;
    fn par_iter(&'a self) -> ParSlice<'a, T> {
        ParSlice { s: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Iter = ParSlice<'a, T>;
    fn par_iter(&'a self) -> ParSlice<'a, T> {
        ParSlice { s: self }
    }
}

/// Parallel mutable-slice pipeline. Supports the `enumerate().for_each()`
/// and `for_each()` patterns used by the SpMV kernels.
pub struct ParSliceMut<'a, T: Send> {
    s: &'a mut [T],
}

impl<'a, T: Send> ParSliceMut<'a, T> {
    /// Attach indices.
    pub fn enumerate(self) -> EnumerateMut<'a, T> {
        EnumerateMut { s: self.s }
    }

    /// Run `f` on every element.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut T) + Send + Sync,
    {
        drive_mut(self.s, |_, r| f(r));
    }
}

/// Indexed parallel mutable-slice pipeline.
pub struct EnumerateMut<'a, T: Send> {
    s: &'a mut [T],
}

impl<'a, T: Send> EnumerateMut<'a, T> {
    /// Run `f` on every `(index, &mut element)` pair.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut T)) + Send + Sync,
    {
        drive_mut(self.s, |i, r| f((i, r)));
    }
}

fn drive_mut<T, F>(s: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Send + Sync,
{
    let n = s.len();
    let threads = current_num_threads().min(n.max(1));
    if threads <= 1 || n < 2 {
        for (i, r) in s.iter_mut().enumerate() {
            f(i, r);
        }
        return;
    }
    let block = block_size(n, threads);
    let next = AtomicUsize::new(0);
    let ptr = SendPtr(s.as_mut_ptr());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let next = &next;
            let f = &f;
            scope.spawn(move || {
                let ptr = ptr;
                loop {
                    let start = next.fetch_add(block, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + block).min(n);
                    for i in start..end {
                        // SAFETY: block ranges are disjoint, so each element
                        // is mutably borrowed by exactly one worker.
                        f(i, unsafe { &mut *ptr.0.add(i) });
                    }
                }
            });
        }
    });
}

/// `.par_iter_mut()` on slices (and, via deref, `Vec`).
pub trait IntoParallelRefMutIterator<'a> {
    /// The mutable parallel iterator type.
    type Iter;
    /// Mutably borrowing parallel iterator.
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Iter = ParSliceMut<'a, T>;
    fn par_iter_mut(&'a mut self) -> ParSliceMut<'a, T> {
        ParSliceMut { s: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Iter = ParSliceMut<'a, T>;
    fn par_iter_mut(&'a mut self) -> ParSliceMut<'a, T> {
        ParSliceMut { s: self }
    }
}

/// Parallel index-range iterator.
pub struct ParRange {
    start: usize,
    end: usize,
}

impl ParallelIterator for ParRange {
    type Item = usize;
    fn par_len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }
    fn at(&self, i: usize) -> usize {
        self.start + i
    }
}

/// `.into_par_iter()` on owned sources.
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange {
            start: self.start,
            end: self.end,
        }
    }
}

/// Owned-`Vec` parallel iterator (items are cloned out of the backing
/// storage; fine for the cheap index vectors this workspace fans out over).
pub struct ParVec<T: Send + Sync + Clone> {
    v: Vec<T>,
}

impl<T: Send + Sync + Clone> ParallelIterator for ParVec<T> {
    type Item = T;
    fn par_len(&self) -> usize {
        self.v.len()
    }
    fn at(&self, i: usize) -> T {
        self.v[i].clone()
    }
}

impl<T: Send + Sync + Clone> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParVec<T>;
    fn into_par_iter(self) -> ParVec<T> {
        ParVec { v: self }
    }
}

/// Everything a consumer needs in scope.
pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelIterator,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::{Mutex, MutexGuard};

    /// Held by every test that sets the shim's global worker or serial
    /// override, so that no such test observes another one's setting.
    static GLOBAL_OVERRIDES: Mutex<()> = Mutex::new(());

    fn lock_overrides() -> MutexGuard<'static, ()> {
        GLOBAL_OVERRIDES
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn map_collect_matches_serial() {
        let v: Vec<u64> = (0..10_000u64).collect();
        let par: Vec<u64> = v.par_iter().map(|&x| x * x + 1).collect();
        let ser: Vec<u64> = v.iter().map(|&x| x * x + 1).collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn zip_enumerate_for_each_mut() {
        let a: Vec<usize> = (0..5_000).collect();
        let b: Vec<usize> = (0..5_000).map(|x| x * 2).collect();
        let pairs: Vec<usize> = a.par_iter().zip(b.par_iter()).map(|(x, y)| x + y).collect();
        assert_eq!(pairs, (0..5_000).map(|x| 3 * x).collect::<Vec<_>>());

        let mut y = vec![0usize; 4_000];
        y.par_iter_mut().enumerate().for_each(|(i, v)| *v = i * 7);
        assert!(y.iter().enumerate().all(|(i, &v)| v == i * 7));
    }

    #[test]
    fn range_filter_map_and_sum() {
        let kept: Vec<usize> = (0..1000usize)
            .into_par_iter()
            .filter_map(|i| (i % 3 == 0).then_some(i))
            .collect();
        assert_eq!(kept, (0..1000).filter(|i| i % 3 == 0).collect::<Vec<_>>());

        let s: f64 = (0..1000usize).into_par_iter().map(|i| i as f64 * 0.5).sum();
        let t: f64 = (0..1000usize).map(|i| i as f64 * 0.5).sum();
        assert_eq!(
            s.to_bits(),
            t.to_bits(),
            "parallel sum must be bit-identical"
        );
    }

    #[test]
    fn thread_override_gives_identical_results() {
        let _overrides = lock_overrides();
        let v: Vec<u64> = (0..8_192).collect();
        let base: Vec<u64> = v.par_iter().map(|&x| x.rotate_left(7) ^ x).collect();
        for workers in [1, 2, 4, 8] {
            super::set_threads(Some(workers));
            assert_eq!(super::current_num_threads(), workers);
            let got: Vec<u64> = v.par_iter().map(|&x| x.rotate_left(7) ^ x).collect();
            assert_eq!(got, base, "{workers} workers diverged");
        }
        super::set_threads(None);
    }

    #[test]
    fn serial_mode_gives_identical_results() {
        let _overrides = lock_overrides();
        let v: Vec<u64> = (0..8_192).collect();
        let par: Vec<u64> = v.par_iter().map(|&x| x.wrapping_mul(x)).collect();
        super::set_serial(true);
        let ser: Vec<u64> = v.par_iter().map(|&x| x.wrapping_mul(x)).collect();
        super::set_serial(false);
        assert_eq!(par, ser);
    }
}
