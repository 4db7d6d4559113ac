//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this crate vendors
//! the subset of the proptest API the workspace's property tests use:
//! the [`Strategy`] trait (with `prop_map`), range / tuple / collection
//! strategies, [`arbitrary::any`], the `proptest!`, `prop_assert!`,
//! `prop_assert_eq!` and `prop_oneof!` macros, and a deterministic
//! [`test_runner::TestRunner`].
//!
//! Differences from upstream, by design:
//!
//! * **No shrinking.** A failing case reports the generated input
//!   verbatim (inputs are `Debug`-printed) instead of a minimised one.
//! * **Fully deterministic.** Case `i` of every property derives its
//!   RNG seed from `i` alone, so failures reproduce exactly across
//!   runs and machines.

#![forbid(unsafe_code)]

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// Deterministic xoshiro256++ generator used by strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seeds the generator from a case number.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed ^ 0xda7e_2005_9e37_79b9;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        TestRng { s: [next(), next(), next(), next()] }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in [0, 1).
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Generation strategies (value-based: no shrink trees).
pub mod strategy {
    use super::TestRng;

    /// A recipe for generating values of type [`Strategy::Value`].
    pub trait Strategy {
        /// The type of values this strategy produces.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy (used by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<V>(Box<dyn Strategy<Value = V>>);

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            self.0.generate(rng)
        }
    }

    /// Always produces a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice between several strategies of one value type.
    pub struct Union<V> {
        arms: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Builds a union; panics if `arms` is empty.
        #[must_use]
        pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = (rng.next_u64() % self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    macro_rules! tuple_strategy {
        ($($s:ident/$v:ident),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($v,)+) = self;
                    ($($v.generate(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A / a);
    tuple_strategy!(A / a, B / b);
    tuple_strategy!(A / a, B / b, C / c);
    tuple_strategy!(A / a, B / b, C / c, D / d);
    tuple_strategy!(A / a, B / b, C / c, D / d, E / e);
    tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / f);
    tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / f, G / g);
    tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / f, G / g, H / h);
}

use strategy::Strategy;

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty f64 range");
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let r = (u128::from(rng.next_u64()) % span) as i128;
                (self.start as i128 + r) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let r = (u128::from(rng.next_u64()) % span) as i128;
                (lo as i128 + r) as $t
            }
        }
    )*};
}

int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

/// `any::<T>()` support.
pub mod arbitrary {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                #[allow(clippy::cast_possible_truncation)]
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    /// The strategy returned by [`any`].
    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Full-domain strategy for `T`.
    #[must_use]
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::ops::Range;

    /// An inclusive-exclusive bound on generated collection sizes.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Vectors of `element` values with lengths drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// `prop::...` paths as used via the prelude.
pub mod prop {
    pub use crate::collection;
}

/// Configuration and the case-loop runner.
pub mod test_runner {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::fmt::Debug;

    /// Per-property configuration (only `cases` is honoured).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// A failed property case: carries the failure message.
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// Builds a failure from a message.
        #[must_use]
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    /// Drives a property over `config.cases` deterministic cases.
    pub struct TestRunner {
        config: ProptestConfig,
    }

    impl TestRunner {
        /// Builds a runner for one property.
        #[must_use]
        pub fn new(config: ProptestConfig) -> Self {
            TestRunner { config }
        }

        /// Runs the property; panics on the first failing case with the
        /// offending input (generation is deterministic per case index).
        pub fn run<S, F>(&mut self, strategy: &S, test: F)
        where
            S: Strategy,
            S::Value: Debug,
            F: Fn(S::Value) -> Result<(), TestCaseError>,
        {
            for case in 0..self.config.cases {
                let mut rng = TestRng::from_seed(u64::from(case));
                let value = strategy.generate(&mut rng);
                let shown = format!("{value:?}");
                if let Err(TestCaseError(msg)) = test(value) {
                    panic!(
                        "proptest case {case}/{total} failed: {msg}\n  input: {shown}",
                        total = self.config.cases,
                    );
                }
            }
        }
    }
}

/// The usual wildcard import target, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Fails the surrounding property when the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the surrounding property when the two values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {:?} != {:?}", left, right),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    }};
}

/// Uniform choice between strategies producing one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { .. }`
/// becomes a `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let strategy = ($($strat,)+);
            let mut runner = $crate::test_runner::TestRunner::new($cfg);
            runner.run(&strategy, |($($pat,)+)| {
                $body
                ::core::result::Result::Ok(())
            });
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Tag {
        A(usize),
        B(usize, u8),
    }

    fn tags() -> impl Strategy<Value = Vec<Tag>> {
        prop::collection::vec(
            prop_oneof![
                (0usize..8).prop_map(Tag::A),
                (0usize..8, 1u8..4).prop_map(|(a, b)| Tag::B(a, b)),
            ],
            1..12,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn generated_values_respect_their_strategies(
            ts in tags(),
            x in -512i64..512,
            flag in any::<bool>(),
            byte in 0u8..=255,
        ) {
            prop_assert!(!ts.is_empty() && ts.len() < 12, "len {}", ts.len());
            for t in &ts {
                match *t {
                    Tag::A(a) => prop_assert!(a < 8),
                    Tag::B(a, b) => prop_assert!(a < 8 && (1..4).contains(&b)),
                }
            }
            prop_assert!((-512..512).contains(&x));
            let _ = (flag, byte);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let s = tags();
        let a = s.generate(&mut crate::TestRng::from_seed(5));
        let b = s.generate(&mut crate::TestRng::from_seed(5));
        let c = s.generate(&mut crate::TestRng::from_seed(6));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    #[allow(unnameable_test_items)]
    fn failures_report_case_and_input() {
        proptest! {
            #[test]
            fn always_fails(x in 0u8..10) {
                prop_assert!(x > 200, "x was {}", x);
            }
        }
        always_fails();
    }
}
