//! Offline drop-in for the subset of `proptest` 1.x used by this workspace.
//!
//! The build environment has no registry access, so the real `proptest`
//! crate cannot be resolved. This path crate supplies the pieces the
//! workspace's property tests actually call: the `proptest!` macro with an
//! optional `#![proptest_config(...)]` header, integer-range / tuple /
//! `prop_map` / `collection::vec` / `bool::weighted` / `option::weighted` /
//! `any::<T>()` strategies, and the `prop_assert!` / `prop_assert_eq!` /
//! `prop_assume!` result macros.
//!
//! Differences from real proptest, deliberate for an offline shim:
//! - **No shrinking.** A failing case reports its generated inputs verbatim
//!   instead of a minimized counterexample.
//! - **Deterministic seeding.** Case N of test T always sees the same
//!   inputs (seeded from the test name), so failures reproduce exactly;
//!   `proptest-regressions` files are ignored.

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;
    use rand::{Rng, SampleRange};
    use std::fmt::Debug;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike real proptest there is no value-tree/shrinking layer: a
    /// strategy is just a deterministic function of the test RNG.
    pub trait Strategy {
        type Value: Debug;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            O: Debug,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, map: f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        map: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        O: Debug,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.map)(self.source.generate(rng))
        }
    }

    // Integer ranges sample exactly as `rand`'s `gen_range` does.
    impl<T: Debug> Strategy for Range<T>
    where
        Range<T>: SampleRange<T> + Clone,
    {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    impl<T: Debug> Strategy for RangeInclusive<T>
    where
        RangeInclusive<T>: SampleRange<T> + Clone,
    {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($S:ident . $idx:tt),+) => {
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A.0);
    impl_tuple_strategy!(A.0, B.1);
    impl_tuple_strategy!(A.0, B.1, C.2);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
    impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
}

pub mod arbitrary {
    //! `any::<T>()` for primitive types.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::RngCore;
    use std::fmt::Debug;
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized + Debug {
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),* $(,)?) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Strategy returned by [`any`].
    pub struct Any<T>(PhantomData<fn() -> T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// The whole-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::RngCore;
    use std::ops::{Range, RangeInclusive};

    /// Length bounds for [`vec`], convertible from the usual range types.
    pub struct SizeRange {
        min: usize,
        max_inclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { min: r.start, max_inclusive: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            assert!(r.start() <= r.end(), "empty vec size range");
            SizeRange { min: *r.start(), max_inclusive: *r.end() }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { min: n, max_inclusive: n }
        }
    }

    /// Strategy returned by [`vec`].
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_inclusive - self.size.min) as u64 + 1;
            let len = self.size.min + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// A `Vec` of values from `elem`, with a length drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }
}

pub mod bool {
    //! Boolean strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Strategy returned by [`weighted`].
    pub struct Weighted {
        p: f64,
    }

    impl Strategy for Weighted {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.gen_bool(self.p)
        }
    }

    /// `true` with probability `p`.
    pub fn weighted(p: f64) -> Weighted {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        Weighted { p }
    }
}

pub mod option {
    //! `Option` strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Strategy returned by [`weighted`].
    pub struct Weighted<S> {
        p: f64,
        inner: S,
    }

    impl<S: Strategy> Strategy for Weighted<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            // Draw the probability first so inner consumption only happens
            // on Some — mirrors real proptest's lazy inner generation.
            if rng.gen_bool(self.p) {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }

    /// `Some(inner)` with probability `p`, else `None`.
    pub fn weighted<S: Strategy>(p: f64, inner: S) -> Weighted<S> {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        Weighted { p, inner }
    }
}

pub mod test_runner {
    //! Case execution: config, RNG, and the driver the `proptest!` macro
    //! expands to.

    /// Runner configuration. Only `cases` is honored.
    #[derive(Debug, Clone)]
    pub struct Config {
        pub cases: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            Config { cases: 256 }
        }
    }

    /// Why a single case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// An assertion failed; aborts the whole test.
        Fail(String),
        /// The inputs were rejected by `prop_assume!`; the case is retried.
        Reject(String),
    }

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError::Fail(msg.into())
        }

        pub fn reject(msg: impl Into<String>) -> TestCaseError {
            TestCaseError::Reject(msg.into())
        }
    }

    use rand::SeedableRng;

    /// Deterministic per-case RNG: the workspace `rand` shim's SplitMix64.
    pub type TestRng = rand::rngs::StdRng;

    fn fnv1a(s: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Output of one generated case: the pretty-printed inputs plus the
    /// caught outcome of running the body on them.
    pub type CaseOutcome = (String, std::thread::Result<Result<(), TestCaseError>>);

    /// Drives `cfg.cases` accepted cases of `case`, panicking with the
    /// generated inputs on the first failure. Called by `proptest!`.
    pub fn run_proptest<F>(cfg: &Config, name: &str, mut case: F)
    where
        F: FnMut(&mut TestRng) -> CaseOutcome,
    {
        let base = fnv1a(name);
        let mut accepted: u32 = 0;
        let mut attempts: u64 = 0;
        let max_attempts = (cfg.cases as u64).saturating_mul(64).max(1024);
        while accepted < cfg.cases {
            attempts += 1;
            assert!(
                attempts <= max_attempts,
                "proptest '{name}': gave up after {attempts} attempts \
                 ({accepted}/{} cases accepted) — prop_assume! rejects too much",
                cfg.cases
            );
            let mut rng = TestRng::seed_from_u64(base ^ attempts.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let (inputs, outcome) = case(&mut rng);
            match outcome {
                Ok(Ok(())) => accepted += 1,
                Ok(Err(TestCaseError::Reject(_))) => continue,
                Ok(Err(TestCaseError::Fail(msg))) => {
                    panic!("proptest '{name}' failed at case {accepted}: {msg}\nwith inputs:\n{inputs}")
                }
                Err(payload) => {
                    eprintln!("proptest '{name}' panicked at case {accepted} with inputs:\n{inputs}");
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

pub mod prelude {
    //! The glob-import surface: `use proptest::prelude::*;`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

/// Declares deterministic property tests. Supports the real-proptest form:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn prop(xs in proptest::collection::vec(0u64..10, 1..20)) {
///         prop_assert!(xs.len() < 20);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::test_runner::run_proptest(&($cfg), stringify!($name), |__rng| {
                let mut __inputs = ::std::string::String::new();
                $(
                    let __val = $crate::strategy::Strategy::generate(&($strat), __rng);
                    __inputs.push_str(&format!(
                        "  {} = {:?}\n", stringify!($arg), &__val
                    ));
                    let $arg = __val;
                )+
                let __outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(
                        move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                            $body
                            ::std::result::Result::Ok(())
                        },
                    ),
                );
                (__inputs, __outcome)
            });
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

/// `assert!` that reports the generated inputs on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// `assert_eq!` that reports the generated inputs on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "assertion failed: `(left == right)`\n  left: {:?}\n right: {:?}",
                    __l, __r
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "assertion failed: `(left == right)`: {}\n  left: {:?}\n right: {:?}",
                    format!($($fmt)+),
                    __l,
                    __r
                ),
            ));
        }
    }};
}

/// Rejects the current case (it is regenerated, not counted as a failure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(concat!(
                "assumption failed: ",
                stringify!($cond)
            )));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;
    use rand::SeedableRng;

    #[test]
    fn strategies_are_deterministic_per_seed() {
        let strat = crate::collection::vec((0u64..100, any::<bool>()), 1..10);
        let a = strat.generate(&mut TestRng::seed_from_u64(9));
        let b = strat.generate(&mut TestRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    /// The case stream every strategy draws from one seed, pinned: a change
    /// to the generator or to any strategy's sampling shows here.
    #[test]
    fn case_stream_is_pinned() {
        let strat = (
            0u64..1000,
            any::<bool>(),
            -3i32..=5,
            crate::bool::weighted(0.3),
            crate::option::weighted(0.5, 0u8..10),
            crate::collection::vec(any::<u16>(), 0..4),
        );
        let mut rng = TestRng::seed_from_u64(9);
        let got: Vec<_> = (0..4).map(|_| strat.generate(&mut rng)).collect();
        let want = [
            (228, false, 3, false, Some(0), vec![]),
            (165, true, 3, false, Some(1), vec![]),
            (137, true, -1, true, None, vec![15740, 64677]),
            (101, false, -3, false, None, vec![15452, 27731]),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn prop_map_and_ranges_compose() {
        let strat = (0u32..10).prop_map(|x| x * 2);
        let mut rng = TestRng::seed_from_u64(1);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!(v % 2 == 0 && v < 20);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_runs_and_assumes(x in 0u64..1000, flip in any::<bool>()) {
            prop_assume!(x != 999);
            prop_assert!(x < 1000);
            prop_assert_eq!(flip, flip, "flip {}", flip);
        }

        #[test]
        fn inclusive_ranges_hit_both_ends(x in 0u8..=1) {
            prop_assert!(x <= 1);
        }
    }

    proptest! {
        #[test]
        fn default_config_form_works(x in 0i32..5) {
            prop_assert!((0..5).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_prop_panics_with_inputs() {
        proptest! {
            fn always_fails(x in 0u64..10) {
                prop_assert!(x > 100, "x too small: {}", x);
            }
        }
        always_fails();
    }
}
