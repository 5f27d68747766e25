//! A vendored, deterministic, dependency-free shim implementing the subset
//! of the [`proptest`](https://crates.io/crates/proptest) API this
//! workspace's tests use.
//!
//! The build environment has no access to a crates.io registry, so the real
//! proptest cannot be fetched. Rather than rewriting ~1k lines of property
//! tests, this crate provides the same surface — `proptest!`,
//! `prop_assert!`/`prop_assert_eq!`, `any::<T>()`, range and tuple
//! strategies, `prop::collection::vec`, `Strategy::prop_map`, and
//! `ProptestConfig::with_cases` — backed by a fixed-seed splitmix64
//! generator. Cases are deterministic per test function (seeded from the
//! test's name), so failures are reproducible. There is no shrinking, but
//! a failing case is named: the panic message gives the property, the
//! case index and every input's `Debug` form (see [`fail_case`]).

#![forbid(unsafe_code)]

use std::ops::Range;

/// Runner configuration. Only the case count is honoured.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property is checked against.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Deterministic splitmix64 generator driving all value sampling.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator seeded from an arbitrary label (the test name), so each
    /// property sees its own reproducible stream.
    pub fn from_label(label: &str) -> TestRng {
        // FNV-1a over the label picks the stream.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: h }
    }

    /// Next raw 64-bit value (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)` via rejection-free multiply-shift; `bound`
    /// must be positive.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // 128-bit multiply keeps the distribution close enough to uniform
        // for property generation.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A generator of values for one property parameter.
///
/// Mirrors proptest's `Strategy` trait: ranges, tuples, `any::<T>()`,
/// `prop::collection::vec`, and `prop_map` adapters all implement it.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// The `prop_map` adapter.
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                (self.start as u64).wrapping_add(rng.below(span)) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;

    fn sample(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (rng.unit_f64() as f32) * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($n:tt $s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

/// Types with a canonical "anything goes" strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy for any value of `T` (see [`any`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The strategy generating any `T` — proptest's `any::<T>()`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// A strategy always yielding a clone of one value.
#[derive(Clone, Copy, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Anything usable as a vector-length specification: an exact `usize`
    /// or a `Range<usize>`.
    pub trait SizeRange {
        /// Draws a length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    /// Strategy for vectors of values drawn from `element`.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `vec(element, len)` — a vector whose length is drawn from `len`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }
}

/// Re-raises a failing case's panic with the case named: the property,
/// the case index of the total, and each input as `name = {:?}`, followed
/// by the original message. The [`proptest!`] macro calls this with the
/// inputs re-sampled from a copy of the generator taken before the case.
pub fn fail_case(
    property: &str,
    case: u32,
    cases: u32,
    inputs: &[String],
    payload: Box<dyn std::any::Any + Send>,
) -> ! {
    let original = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("(panic payload is not a string)");
    panic!(
        "property {property} failed at case {case} of {cases}\n  {}\n{original}",
        inputs.join("\n  ")
    );
}

/// The glob-import module mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, Just, ProptestConfig, Strategy};

    /// Mirrors the real prelude's `prop` module of strategy constructors.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Asserts a property-test condition (no shrinking: plain `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test (plain `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Declares property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running the body over deterministically sampled
/// cases. Every input must be `Debug`: when a case panics, its inputs are
/// re-sampled from a copy of the generator saved before the case and
/// named in the re-raised panic ([`fail_case`]).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_cfg ($cfg) $($rest)*);
    };
    (@with_cfg ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let property = concat!(module_path!(), "::", stringify!($name));
                // Re-samples one case's inputs, each as `name = {:?}`. Built
                // before any input is bound, so no input shadows a name its
                // strategies use.
                let describe = |rng: &mut $crate::TestRng| -> Vec<String> {
                    vec![$(format!(
                        "{} = {:?}",
                        stringify!($arg),
                        $crate::Strategy::sample(&($strat), rng)
                    )),+]
                };
                let mut rng = $crate::TestRng::from_label(property);
                for case in 0..cfg.cases {
                    let mut replay = rng.clone();
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                    let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| $body));
                    if let Err(payload) = outcome {
                        $crate::fail_case(property, case, cfg.cases, &describe(&mut replay), payload);
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn rng_is_deterministic_per_label() {
        let mut a = crate::TestRng::from_label("x");
        let mut b = crate::TestRng::from_label("x");
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = crate::TestRng::from_label("y");
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Ranges respect their bounds.
        #[test]
        fn ranges_in_bounds(x in 3u64..17, f in -2.0f64..4.5, i in -5i32..9) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..4.5).contains(&f));
            prop_assert!((-5..9).contains(&i));
        }

        /// Vec strategies honour length specs, including nested tuples.
        #[test]
        fn vec_lengths(v in prop::collection::vec((0u64..10, any::<bool>()), 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            for &(x, _) in &v {
                prop_assert!(x < 10);
            }
        }

        /// prop_map composes.
        #[test]
        fn map_composes(s in (1u64..4, 1u64..4).prop_map(|(a, b)| a * b)) {
            prop_assert!((1..=9).contains(&s));
        }

        /// Exact-size vecs work (used by the model tests).
        #[test]
        fn exact_size_vec(v in prop::collection::vec(0u64..5, 4usize)) {
            prop_assert_eq!(v.len(), 4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Fails on every case whose `x` reaches 50; called, not run, by
        /// the test below.
        fn fails_from_fifty(x in 0u64..100, tag in any::<bool>()) {
            let _ = tag;
            prop_assert!(x < 50, "x = {} reached fifty", x);
        }
    }

    #[test]
    fn a_failing_case_names_its_property_index_and_inputs() {
        let payload = std::panic::catch_unwind(fails_from_fifty).unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .expect("the re-raised panic carries a String");
        let mut lines = msg.lines();
        let head = lines.next().unwrap();
        assert!(
            head.starts_with("property ") && head.contains("::fails_from_fifty failed at case "),
            "{msg}"
        );
        assert!(head.ends_with(" of 32"), "{msg}");
        let x_line = lines.next().unwrap().trim();
        let x: u64 = x_line
            .strip_prefix("x = ")
            .unwrap_or_else(|| panic!("first input line is x: {msg}"))
            .parse()
            .unwrap();
        assert!(x >= 50, "the named case must be a failing one: {msg}");
        let tag_line = lines.next().unwrap().trim();
        assert!(
            tag_line == "tag = true" || tag_line == "tag = false",
            "{msg}"
        );
        // The original message follows, and it names the same input.
        assert_eq!(
            lines.next(),
            Some(format!("x = {x} reached fifty").as_str()),
            "{msg}"
        );
        // The case index re-samples to the same input.
        let case: u32 = head
            .split("failed at case ")
            .nth(1)
            .and_then(|r| r.split(' ').next())
            .unwrap()
            .parse()
            .unwrap();
        let mut rng = crate::TestRng::from_label(concat!(module_path!(), "::fails_from_fifty"));
        for _ in 0..case {
            let _ = (0u64..100).sample(&mut rng);
            let _ = any::<bool>().sample(&mut rng);
        }
        assert_eq!((0u64..100).sample(&mut rng), x, "{msg}");
    }
}
