//! Offline stand-in for `proptest`.
//!
//! The build container has no crates.io access, so this crate re-implements
//! the slice of proptest the workspace's property tests use: `Strategy` with
//! `prop_map`/`boxed`, `Just`, integer ranges, tuples, `any::<T>()`,
//! `prop::collection::vec`, weighted `prop_oneof!`, and the `proptest!` test
//! macro with `ProptestConfig::with_cases`.
//!
//! Unlike real proptest there is no shrinking and no failure persistence:
//! each test runs `cases` deterministic samples (seeded from the test name),
//! and `prop_assert!` failures panic like ordinary assertions. That keeps
//! the harness reproducible run-to-run, which matters more here than
//! minimal counterexamples.

#![forbid(unsafe_code)]

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Deterministic test RNG (splitmix64-seeded xorshift-multiply stream).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed deterministically from a label (the test name), so every run of
    /// a given test sees the same sample sequence.
    pub fn deterministic(label: &str) -> TestRng {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        for b in label.bytes() {
            seed = (seed ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        TestRng { state: seed | 1 }
    }

    /// Next raw 64-bit value (splitmix64 step).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Modulo bias is irrelevant at test-sampling scale.
        self.next_u64() % bound
    }
}

/// A generator of values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with a function.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erase into a [`BoxedStrategy`].
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(move |rng| self.sample(rng)))
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        (**self).sample(rng)
    }
}

/// Type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn Fn(&mut TestRng) -> T>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Strategy producing one fixed value.
#[derive(Clone, Copy, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Weighted choice between boxed alternatives; backs `prop_oneof!`.
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T> Union<T> {
    /// Build from `(weight, strategy)` arms; total weight must be non-zero.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
        let total = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof! needs at least one positive weight");
        Union { arms, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total);
        for (w, strat) in &self.arms {
            if pick < *w as u64 {
                return strat.sample(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weights exhausted")
    }
}

// ---------------------------------------------------------------------------
// Integer ranges and `any`
// ---------------------------------------------------------------------------

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Marker strategy for "any value of `T`"; see [`any`].
pub struct Any<T>(PhantomData<T>);

/// Strategy over the full domain of `T` (implemented per type on [`Any`]).
pub fn any<T>() -> Any<T> {
    Any(PhantomData)
}

impl Strategy for Any<bool> {
    type Value = bool;
    fn sample(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_any_int {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

// ---------------------------------------------------------------------------
// Tuples
// ---------------------------------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

// ---------------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------------

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec<T>` with a length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A vector whose length is uniform in `size` and whose elements come
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Namespace alias so tests can write `prop::collection::vec(...)`.
pub mod prop {
    pub use crate::collection;
}

// ---------------------------------------------------------------------------
// Config and macros
// ---------------------------------------------------------------------------

/// Runner configuration; only `cases` is honoured.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of samples per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` samples per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// Assert inside a property; panics with context on failure.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Assert equality inside a property; panics with context on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Weighted (or unweighted) choice between strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $((1u32, $crate::Strategy::boxed($strat))),+
        ])
    };
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic samples.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::TestRng::deterministic(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for __case in 0..__cfg.cases {
                    let _ = __case;
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)+
                    $body
                }
            }
        )*
    };
}

/// Common imports for property tests.
pub mod prelude {
    pub use crate::{
        any, collection, prop, prop_assert, prop_assert_eq, prop_oneof, proptest, Any,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestRng, Union,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::deterministic("ranges");
        for _ in 0..1000 {
            let v = (3u8..7).sample(&mut rng);
            assert!((3..7).contains(&v));
            let w = (-5i32..=5).sample(&mut rng);
            assert!((-5..=5).contains(&w));
        }
    }

    #[test]
    fn oneof_respects_zero_weight_absence() {
        let mut rng = TestRng::deterministic("oneof");
        let s = prop_oneof![3 => Just(1u8), 1 => 10u8..20];
        for _ in 0..500 {
            let v = s.sample(&mut rng);
            assert!(v == 1 || (10..20).contains(&v));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: vectors honour their size strategy.
        #[test]
        fn vec_sizes_in_range(v in prop::collection::vec(any::<bool>(), 2..9)) {
            prop_assert!(v.len() >= 2 && v.len() < 9);
        }
    }
}
