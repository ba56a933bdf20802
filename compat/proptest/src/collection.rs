//! Collection strategies (`prop::collection::vec`).

use crate::{Strategy, TestRng};
use rand::Rng;
use std::ops::Range;

/// Strategy producing `Vec`s with lengths drawn from a range; see [`vec`](fn@vec).
#[derive(Debug)]
pub struct VecStrategy<S> {
    element: S,
    len: Range<usize>,
}

/// A strategy for `Vec`s whose elements come from `element` and whose length
/// is drawn uniformly from `len`.
pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
    assert!(!len.is_empty(), "empty length range for collection::vec");
    VecStrategy { element, len }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let n = rng.gen_range(self.len.clone());
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}
