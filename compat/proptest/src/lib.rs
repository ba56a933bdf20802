//! Offline subset of the `proptest` API. This workspace builds in
//! environments with no access to crates.io, so the surface the Dimmunix
//! property suites use is provided here: the [`proptest!`] /
//! [`prop_oneof!`] / [`prop_assert!`] / [`prop_assert_eq!`] macros, the
//! [`Strategy`] trait with `prop_map`, integer-range and tuple strategies,
//! [`collection::vec`](fn@collection::vec), [`any`] over [`Arbitrary`]
//! types, and simple character-class string patterns (`"[a-z]{1,12}"`).
//!
//! Differences from upstream: cases are generated from a per-test
//! deterministic seed, and failing cases are reported with their inputs but
//! **not shrunk**. `PROPTEST_CASES` caps the case count so CI can bound the
//! property suites' running time.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::Rng;

pub mod collection;
pub mod string;

/// The RNG handed to [`Strategy::generate`].
pub type TestRng = StdRng;

/// Configuration for a [`proptest!`] block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }

    /// The case count after applying the `PROPTEST_CASES` environment cap.
    pub fn effective_cases(&self) -> u32 {
        match std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse::<u32>().ok())
        {
            Some(cap) => self.cases.min(cap),
            None => self.cases,
        }
    }
}

/// A generator of test-case values.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Produces one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// Boxes a strategy as a trait object; used by [`prop_oneof!`] to unify
/// heterogeneous branch types.
pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
where
    S: Strategy + 'static,
{
    Box::new(s)
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
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

/// Uniform choice between boxed strategies; built by [`prop_oneof!`].
pub struct Union<V> {
    branches: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> std::fmt::Debug for Union<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Union")
            .field("branches", &self.branches.len())
            .finish()
    }
}

impl<V> Union<V> {
    /// A strategy choosing uniformly among `branches`.
    pub fn new(branches: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
        assert!(
            !branches.is_empty(),
            "prop_oneof! needs at least one branch"
        );
        Self { branches }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.gen_range(0..self.branches.len());
        self.branches[i].generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                if hi < <$t>::MAX {
                    rng.gen_range(lo..hi + 1)
                } else if lo > <$t>::MIN {
                    rng.gen_range(lo - 1..hi) + 1
                } else {
                    rng.gen::<u64>() as $t
                }
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Types with a canonical uniform strategy, used by [`any`].
pub trait Arbitrary {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.gen::<u64>() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen::<bool>()
    }
}

impl<T: Arbitrary> Arbitrary for Option<T> {
    fn arbitrary(rng: &mut TestRng) -> Self {
        if rng.gen::<bool>() {
            Some(T::arbitrary(rng))
        } else {
            None
        }
    }
}

/// Strategy returned by [`any`].
#[derive(Debug)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Derives the per-test base seed. Deterministic per test name so failures
/// reproduce, decorrelated across tests.
pub fn case_seed(test_name: &str, case: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ ((case as u64) << 32 | case as u64)
}

/// Items re-exported under `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        ProptestConfig, Strategy,
    };

    /// Alias namespace matching upstream's `prelude::prop`.
    pub mod prop {
        pub use crate::collection;
        pub use crate::string;
    }
}

/// Renders a caught panic payload for the failure report.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked (non-string payload)".to_string()
    }
}

/// Runs one property's cases; used by the [`proptest!`] expansion.
///
/// `run_case` generates inputs from the RNG, returning a rendered
/// description of the inputs alongside the case's pass/fail result (the
/// macro maps panics in the property body to `Err` so every failure is
/// reported with its inputs and case number).
pub fn run_property(
    test_name: &str,
    config: &ProptestConfig,
    mut run_case: impl FnMut(&mut TestRng) -> (String, Result<(), String>),
) {
    let cases = config.effective_cases();
    for case in 0..cases {
        let mut rng = rand::SeedableRng::seed_from_u64(case_seed(test_name, case));
        let (inputs, outcome) = run_case(&mut rng);
        if let Err(msg) = outcome {
            panic!(
                "proptest property `{test_name}` failed at case {case}/{cases}: {msg}\n\
                 inputs: {inputs}\n\
                 (deterministic; rerun the same build to reproduce)"
            );
        }
    }
}

/// Defines property tests. Supports an optional leading
/// `#![proptest_config(..)]`, then any number of `#[test] fn name(pat in
/// strategy, ..) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@fns ($cfg) $($rest)*);
    };
    (@fns ($cfg:expr)) => {};
    (@fns ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $(let $pat = $strat;)+
            $crate::run_property(stringify!($name), &config, |rng| {
                $(let $pat = $crate::Strategy::generate(&$pat, rng);)+
                let inputs = format!(
                    concat!($(stringify!($pat), " = {:?}; ",)+),
                    $(&$pat),+
                );
                let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    || -> ::std::result::Result<(), ::std::string::String> {
                        $body
                        ::std::result::Result::Ok(())
                    },
                ))
                .unwrap_or_else(|payload| {
                    ::std::result::Result::Err($crate::panic_message(payload))
                });
                (inputs, outcome)
            });
        }
        $crate::proptest!(@fns ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@fns ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::boxed($strat)),+])
    };
}

/// Asserts a condition inside a property, failing the case (not aborting the
/// process) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    };
}

/// Asserts two values are equal inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(
                format!($($fmt)+) + &format!("\n  left: {:?}\n right: {:?}", l, r),
            );
        }
    }};
}

/// Asserts two values are unequal inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}
