//! Minimal in-tree replacement for the `proptest` crate.
//!
//! The build environment has no network access to crates.io; this shim
//! provides the subset the workspace's property tests use: the
//! [`proptest!`] macro (with `#![proptest_config(...)]`), range / tuple /
//! `Just` / `any` / `collection::vec` strategies, the `prop_map` /
//! `prop_flat_map` adaptors, and the `prop_assert*` / `prop_assume!`
//! macros.
//!
//! Differences from upstream proptest, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports its seed and values via the
//!   panic message but is not minimised.
//! * **Derandomised by name.** Each test's RNG stream is derived from the
//!   test function name and case index, so runs are fully deterministic
//!   (upstream uses an entropy-seeded RNG plus a persistence file).
//!   `PROPTEST_SEED=N` moves every stream to another fixed one, and
//!   `PROPTEST_CASES=N` overrides every property's case count (see
//!   [`test_runner`]); a failure message names the seed it ran under.

pub mod strategy;
pub mod test_runner;

pub use strategy::{any, Just, Strategy};

/// Boolean strategies (`proptest::bool`).
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Uniform true/false.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// The canonical instance (`prop::bool::ANY`).
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Length specification accepted by [`vec`]: a fixed `usize` or a
    /// `Range<usize>`.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy for `Vec<T>` with element strategy `S` and a length drawn
    /// from `size`.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.below((self.size.hi - self.size.lo) as u64) as usize + self.size.lo;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Per-test configuration (`proptest::test_runner::Config` subset).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// Mirror of upstream's `prelude::prop` module alias.
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
    }
}

/// The main property-test macro. Each listed function becomes a `#[test]`
/// that runs `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Implementation detail of [`proptest!`]; do not invoke directly.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        ($cfg:expr)
        $(
            $(#[$attr:meta])*
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..$crate::test_runner::cases(config.cases) {
                    let mut proptest_rng = $crate::test_runner::TestRng::for_case(
                        stringify!($name),
                        case as u64,
                    );
                    $(
                        let $pat = $crate::strategy::Strategy::generate(
                            &($strat),
                            &mut proptest_rng,
                        );
                    )+
                    let result: ::core::result::Result<(), ::std::string::String> =
                        (move || {
                            $body
                            ::core::result::Result::Ok(())
                        })();
                    if let ::core::result::Result::Err(msg) = result {
                        panic!(
                            "proptest `{}` failed at case {} (PROPTEST_SEED={}): {}",
                            stringify!($name),
                            case,
                            $crate::test_runner::seed_override()
                                .map_or("unset".to_string(), |s| s.to_string()),
                            msg
                        );
                    }
                }
            }
        )*
    };
}

/// Assert inside a `proptest!` body; failure fails only the current case
/// with a formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: `{} == {}` (left: `{:?}`, right: `{:?}`)",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err(::std::format!($($fmt)+));
        }
    }};
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: `{} != {}` (both: `{:?}`)",
                stringify!($left),
                stringify!($right),
                l
            ));
        }
    }};
}

/// Skip the current case when a precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Ok(());
        }
    };
}
