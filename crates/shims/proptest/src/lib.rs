//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset this workspace's property tests use: the
//! [`proptest!`] macro with an optional `proptest_config` attribute, range and
//! tuple strategies, [`collection::vec`], [`bool::ANY`], `prop_map` /
//! `prop_flat_map` combinators and the `prop_assert*` macros.
//!
//! Differences from real proptest: inputs are drawn from a deterministic
//! per-test RNG (seeded from the test name), and there is **no shrinking** — a
//! failing case reports the case number and message only. Failures are
//! reproducible because the stream is fixed.

use rand::rngs::StdRng;
use rand::{Rng, SampleUniform, SeedableRng};
use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Everything the tests import via `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
        TestCaseError,
    };
}

/// Per-test configuration (only `cases` is consulted).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
    /// Accepted for source compatibility; unused.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64, max_shrink_iters: 0 }
    }
}

/// A failed property assertion.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Creates a failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError { message: message.into() }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TestCaseError {}

/// A generator of random values of type `Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, func: f }
    }

    /// Builds a second strategy from each generated value and draws from it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, func: f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    func: F,
}

impl<S, F, T> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        (self.func)(self.inner.generate(rng))
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    func: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, rng: &mut StdRng) -> S2::Value {
        (self.func)(self.inner.generate(rng)).generate(rng)
    }
}

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

impl<T: SampleUniform> Strategy for Range<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.clone())
    }
}

impl<T: SampleUniform> Strategy for RangeInclusive<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.clone())
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!((A, B), (A, B, C), (A, B, C, D));

/// Boolean strategies.
pub mod bool {
    use super::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Uniformly random booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The boolean strategy instance (`proptest::bool::ANY`).
    pub const ANY: Any = Any;

    impl Strategy for Any {
        // The module is itself named `bool`, so spell the primitive out.
        type Value = ::core::primitive::bool;

        fn generate(&self, rng: &mut StdRng) -> ::core::primitive::bool {
            rng.gen_bool(0.5)
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::Range;

    /// Lengths accepted by [`vec()`]: a fixed size or a half-open range.
    pub trait IntoSizeRange {
        /// Lower bound (inclusive) and upper bound (exclusive).
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self + 1)
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            (self.start, self.end)
        }
    }

    /// Strategy for `Vec`s whose elements come from `element` and whose length
    /// is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        assert!(min < max, "empty vec length range");
        VecStrategy { element, min, max }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.min..self.max);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Derives the deterministic per-test RNG seed from the test path.
pub fn rng_for_test(test_name: &str) -> StdRng {
    let mut seed = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    for byte in test_name.bytes() {
        seed ^= u64::from(byte);
        seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(seed)
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }` item
/// becomes a `#[test]` that runs the body over `cases` random inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::rng_for_test(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..config.cases {
                    $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(error) = outcome {
                        panic!(
                            "property `{}` failed on case {}/{}: {}",
                            stringify!($name), case + 1, config.cases, error
                        );
                    }
                }
            }
        )*
    };
}

/// Fails the enclosing property when the condition does not hold.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the enclosing property when the two values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`", left, right
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}: `{:?}` != `{:?}`", format!($($fmt)+), left, right
            )));
        }
    }};
}

/// Fails the enclosing property when the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        if left == right {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` == `{:?}`",
                left, right
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::Strategy;

    #[test]
    fn strategies_generate_in_bounds() {
        let mut rng = super::rng_for_test("bounds");
        for _ in 0..200 {
            let v = (0usize..5).generate(&mut rng);
            assert!(v < 5);
            let (a, b) = ((1u64..=3), (0.0f32..1.0)).generate(&mut rng);
            assert!((1..=3).contains(&a) && (0.0..1.0).contains(&b));
            let list = super::collection::vec(0usize..4, 1..8).generate(&mut rng);
            assert!((1..8).contains(&list.len()));
            assert!(list.iter().all(|&x| x < 4));
        }
    }

    #[test]
    fn map_and_flat_map_compose() {
        let mut rng = super::rng_for_test("compose");
        let strategy = (1usize..4)
            .prop_flat_map(|n| super::collection::vec(0usize..10, n).prop_map(move |v| (n, v)));
        for _ in 0..100 {
            let (n, v) = strategy.generate(&mut rng);
            assert_eq!(v.len(), n);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

        /// The macro pipeline itself works end to end.
        #[test]
        fn macro_smoke(x in 0u64..100, flip in crate::bool::ANY) {
            prop_assert!(x < 100);
            prop_assert!(usize::from(flip) <= 1);
            prop_assert_ne!(x, 1000);
        }
    }
}
