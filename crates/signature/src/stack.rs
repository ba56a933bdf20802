//! Interned call stacks and suffix matching.
//!
//! A call stack is the sequence of frames a thread had on its stack when it
//! acquired (or requested) a lock, ordered **outermost first**: the last
//! element is the frame that issued the `lock()` call itself. Signature
//! matching compares *suffixes* — the innermost `depth` frames — because a
//! deadlock pattern is "an approximate suffix of the call flow that led to
//! deadlock" (§3 of the paper).

use crate::frame::FrameId;
use crate::id_hash::IdMap;
use parking_lot::RwLock;
use std::fmt;
use std::sync::Arc;

/// Dense identifier of an interned call stack.
///
/// The paper hashes raw call stacks into per-stack metadata objects (§5.6);
/// `StackId` plays the role of the pointer to that object. Equal ids ⇔ equal
/// full stacks (within one [`StackTable`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StackId(pub u32);

impl fmt::Debug for StackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// An owned call stack: outermost frame first, lock call site last.
pub type CallStack = Arc<[FrameId]>;

/// Returns the suffix of `stack` consisting of its innermost
/// `depth` frames (the whole stack if it is shorter).
pub fn suffix_of(stack: &[FrameId], depth: usize) -> &[FrameId] {
    &stack[stack.len().saturating_sub(depth)..]
}

/// Whether two stacks match at the given depth, i.e. their innermost
/// `depth`-frame suffixes are identical.
///
/// Matching is *monotonic in depth*: a match at depth `d + 1` implies a match
/// at depth `d` whenever both stacks have at least `d + 1` frames; shorter
/// stacks only match stacks with the same short suffix.
///
/// # Examples
///
/// ```
/// use dimmunix_signature::{suffix_matches, FrameTable};
///
/// let t = FrameTable::new();
/// let s1 = t.intern("main", "m.rs", 1);
/// let s2 = t.intern("main", "m.rs", 2);
/// let s3 = t.intern("update", "m.rs", 3);
/// // The paper's example: [s1, s3] vs [s2, s3].
/// assert!(suffix_matches(&[s1, s3], &[s2, s3], 1));
/// assert!(!suffix_matches(&[s1, s3], &[s2, s3], 2));
/// ```
pub fn suffix_matches(a: &[FrameId], b: &[FrameId], depth: usize) -> bool {
    suffix_of(a, depth) == suffix_of(b, depth)
}

#[derive(Default)]
struct Inner {
    stacks: Vec<CallStack>,
    by_stack: IdMap<CallStack, StackId>,
}

/// Thread-safe interner mapping call stacks to dense [`StackId`]s.
#[derive(Default)]
pub struct StackTable {
    inner: RwLock<Inner>,
}

impl StackTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a call stack (outermost frame first).
    pub fn intern(&self, frames: &[FrameId]) -> StackId {
        {
            let inner = self.inner.read();
            if let Some(&id) = inner.by_stack.get(frames) {
                return id;
            }
        }
        let mut inner = self.inner.write();
        if let Some(&id) = inner.by_stack.get(frames) {
            return id;
        }
        let stack: CallStack = frames.into();
        let id =
            StackId(u32::try_from(inner.stacks.len()).expect("more than u32::MAX distinct stacks"));
        inner.stacks.push(Arc::clone(&stack));
        inner.by_stack.insert(stack, id);
        id
    }

    /// Returns the frames of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn resolve(&self, id: StackId) -> CallStack {
        Arc::clone(&self.inner.read().stacks[id.0 as usize])
    }

    /// Number of distinct stacks interned.
    pub fn len(&self) -> usize {
        self.inner.read().stacks.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether stacks `a` and `b` match at `depth` (resolving both).
    pub fn match_at_depth(&self, a: StackId, b: StackId, depth: usize) -> bool {
        if a == b {
            return true;
        }
        let inner = self.inner.read();
        suffix_matches(
            &inner.stacks[a.0 as usize],
            &inner.stacks[b.0 as usize],
            depth,
        )
    }

    /// Approximate heap footprint in bytes (for the §7.4 resource report).
    pub fn approx_bytes(&self) -> usize {
        let inner = self.inner.read();
        inner
            .stacks
            .iter()
            .map(|s| s.len() * core::mem::size_of::<FrameId>() + core::mem::size_of::<CallStack>())
            .sum::<usize>()
            * 2 // Both the vec and the hash-map key hold an Arc clone.
    }
}

impl fmt::Debug for StackTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StackTable")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameTable;

    fn frames(t: &FrameTable, lines: &[u32]) -> Vec<FrameId> {
        lines.iter().map(|&l| t.intern("f", "x.rs", l)).collect()
    }

    #[test]
    fn intern_dedupes_equal_stacks() {
        let ft = FrameTable::new();
        let st = StackTable::new();
        let a = st.intern(&frames(&ft, &[1, 2, 3]));
        let b = st.intern(&frames(&ft, &[1, 2, 3]));
        let c = st.intern(&frames(&ft, &[1, 2]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(st.len(), 2);
    }

    #[test]
    fn suffix_of_basics() {
        let ft = FrameTable::new();
        let s = frames(&ft, &[1, 2, 3, 4]);
        assert_eq!(suffix_of(&s, 2), &s[2..]);
        assert_eq!(suffix_of(&s, 4), &s[..]);
        assert_eq!(suffix_of(&s, 9), &s[..]);
        assert_eq!(suffix_of(&s, 0), &[] as &[FrameId]);
    }

    #[test]
    fn matching_is_monotonic_in_depth() {
        let ft = FrameTable::new();
        let a = frames(&ft, &[1, 9, 5, 6]);
        let b = frames(&ft, &[2, 8, 5, 6]);
        assert!(suffix_matches(&a, &b, 0));
        assert!(suffix_matches(&a, &b, 1));
        assert!(suffix_matches(&a, &b, 2));
        assert!(!suffix_matches(&a, &b, 3));
        assert!(!suffix_matches(&a, &b, 4));
    }

    #[test]
    fn short_stacks_only_match_same_short_suffix() {
        let ft = FrameTable::new();
        let short = frames(&ft, &[5, 6]);
        let long = frames(&ft, &[1, 2, 5, 6]);
        // At depth 4 the suffixes have different lengths: no match.
        assert!(!suffix_matches(&short, &long, 4));
        assert!(suffix_matches(&short, &long, 2));
    }

    #[test]
    fn match_at_depth_via_table() {
        let ft = FrameTable::new();
        let st = StackTable::new();
        let a = st.intern(&frames(&ft, &[1, 5, 6]));
        let b = st.intern(&frames(&ft, &[2, 5, 6]));
        assert!(st.match_at_depth(a, b, 2));
        assert!(!st.match_at_depth(a, b, 3));
        assert!(st.match_at_depth(a, a, 17));
    }
}
