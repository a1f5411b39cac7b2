//! Offline stand-in for `proptest`.
//!
//! Implements the strategy combinators and the `proptest!` macro surface the
//! workspace uses, on top of the seeded `rand` shim. Each test function gets
//! a deterministic RNG derived from its name, so failures are reproducible
//! run-over-run. There is no shrinking: on failure the harness reports the
//! case index and seed, then re-raises the original panic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Per-run configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic RNG for a named test (FNV-1a of the name over a fixed
/// master seed).
pub fn rng_for(test_name: &str) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    StdRng::seed_from_u64(h ^ 0x5EED_CAFE_F00D_D00D)
}

/// A generator of test values.
pub trait Strategy {
    /// Generated value type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { base: self, f }
    }

    /// Generate a dependent strategy from each value.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { base: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.base.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut StdRng) -> S2::Value {
        (self.f)(self.base.generate(rng)).generate(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! tuple_strategy {
    ($(($($s:ident : $idx:tt),+),)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
}

/// Collection-size specification: an exact size or a half-open range.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl SizeRange {
    fn sample(&self, rng: &mut StdRng) -> usize {
        if self.hi <= self.lo + 1 {
            self.lo
        } else {
            rng.gen_range(self.lo..self.hi)
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi: *r.end() + 1,
        }
    }
}

/// Collection strategies mirroring `proptest::collection`.
pub mod collection {
    use super::{SizeRange, Strategy};
    use rand::rngs::StdRng;

    /// `Vec` of `elem`-generated values with a length drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// `BTreeSet` with a target size drawn from `size`; like upstream
    /// proptest, gives up after bounded attempts if the element domain is
    /// too small, yielding a smaller set.
    pub fn btree_set<S>(elem: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            elem,
            size: size.into(),
        }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = std::collections::BTreeSet<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let target = self.size.sample(rng);
            let mut set = std::collections::BTreeSet::new();
            let mut attempts = 0usize;
            while set.len() < target && attempts < target * 10 + 20 {
                set.insert(self.elem.generate(rng));
                attempts += 1;
            }
            set
        }
    }
}

/// Assert inside a proptest body.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Assert equality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Assert inequality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Property-test harness macro. Mirrors upstream syntax:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_property(x in 0usize..10, (a, b) in my_strategy()) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::rng_for(stringify!($name));
            for __case in 0..__config.cases {
                $(let $pat = $crate::Strategy::generate(&($strat), &mut __rng);)*
                let __result = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(|| $body),
                );
                if let ::std::result::Result::Err(__panic) = __result {
                    eprintln!(
                        "proptest {}: failed at case {}/{} (deterministic seed from test name)",
                        stringify!($name),
                        __case + 1,
                        __config.cases,
                    );
                    ::std::panic::resume_unwind(__panic);
                }
            }
        }
    )*};
}

/// Common imports mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn pair() -> impl Strategy<Value = (usize, Vec<usize>)> {
        (1usize..10)
            .prop_flat_map(|n| crate::collection::vec(0usize..100, n).prop_map(move |v| (n, v)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3usize..17, f in -2.0f64..2.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..2.0).contains(&f));
        }

        #[test]
        fn flat_map_links_sizes((n, v) in pair()) {
            prop_assert_eq!(v.len(), n);
            prop_assert!(v.iter().all(|&x| x < 100));
        }

        #[test]
        fn btree_sets_bounded(s in crate::collection::btree_set(0usize..50, 0..20)) {
            prop_assert!(s.len() < 20);
            prop_assert!(s.iter().all(|&x| x < 50));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::rng_for("some_test");
        let mut b = crate::rng_for("some_test");
        let sa = crate::collection::vec(0usize..1000, 5..10).generate(&mut a);
        let sb = crate::collection::vec(0usize..1000, 5..10).generate(&mut b);
        assert_eq!(sa, sb);
    }
}
