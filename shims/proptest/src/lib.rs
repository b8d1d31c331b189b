//! Offline stand-in for the `proptest` crate.
//!
//! Supports the subset of the API used by this workspace's property tests:
//! the [`proptest!`] macro, [`strategy::Strategy`] with `prop_map`, numeric
//! range strategies, tuple strategies, `prop::collection::vec`,
//! `prop::sample::select`, `any::<bool>()`, regex-subset string strategies
//! and [`test_runner::ProptestConfig`]. Case generation is deterministic:
//! every test derives its RNG seed from its own name, so failures reproduce.
//! There is no shrinking — a failing case reports its values via panic.

pub mod collection;
pub mod sample;
pub mod strategy;
pub mod string;
pub mod test_runner;

pub mod prelude {
    //! The glob-imported surface, mirroring `proptest::prelude`.

    pub use crate::any;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, proptest};

    pub mod prop {
        //! Module alias so `prop::collection::vec` etc. resolve after a glob
        //! import, as with the real crate.
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Types with a canonical default strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// The strategy produced by [`any`].
    type Strategy: strategy::Strategy<Value = Self>;
    /// The canonical strategy for the type.
    fn arbitrary() -> Self::Strategy;
}

impl Arbitrary for bool {
    type Strategy = strategy::AnyBool;
    fn arbitrary() -> Self::Strategy {
        strategy::AnyBool
    }
}

/// The canonical strategy for `T` (only the types the workspace needs).
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// FNV-1a hash of a test name, used to derive per-test RNG seeds.
pub fn seed_for(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Runs property-test functions over generated inputs.
///
/// ```ignore
/// use proptest::prelude::*;
///
/// proptest! {
///     #[test]
///     fn addition_commutes(a in 0i64..1000, b in 0i64..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config = $cfg;
                let base_seed = $crate::seed_for(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..config.cases as u64 {
                    let mut __runner = $crate::test_runner::new_rng(base_seed.wrapping_add(case));
                    $(let $arg = $crate::strategy::Strategy::generate(&$strat, &mut __runner);)*
                    let __inputs =
                        [$(format!(concat!(stringify!($arg), " = {:?}"), &$arg)),*].join(", ");
                    let result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(e) = result {
                        panic!(
                            "proptest case {case} of {} failed: {e}\ninputs: {__inputs}",
                            stringify!($name),
                        );
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {:?} == {:?}", l, r),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("{}: {:?} != {:?}", format!($($fmt)+), l, r),
            ));
        }
    }};
}
