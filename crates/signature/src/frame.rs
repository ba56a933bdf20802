//! Interned call-site frames.
//!
//! The paper's signatures store "permutations of instruction addresses"
//! (return-address byte offsets relative to the binary, so they survive
//! ASLR). A Rust library cannot rely on stable return addresses across
//! builds, so we use the source-symbolic equivalent — `(function, file,
//! line)` triples — interned into dense [`FrameId`]s. The Java flavour of
//! Dimmunix does exactly this (`<methodName, file:line#>` strings).

use parking_lot::RwLock;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A single call-site frame: where in the program a call was made.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Frame {
    /// Name of the function containing the call site.
    pub function: Arc<str>,
    /// Source file of the call site.
    pub file: Arc<str>,
    /// 1-based line number of the call site.
    pub line: u32,
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}:{}", self.function, self.file, self.line)
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}:{})", self.function, self.file, self.line)
    }
}

/// Dense identifier of an interned [`Frame`].
///
/// Comparing two `FrameId`s is equivalent to comparing the underlying
/// frames, provided both were interned in the same [`FrameTable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub u32);

impl fmt::Debug for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// The borrowed view of a frame that the interner's map is probed with, so
/// a lookup hashes and compares `&str`s in place instead of building two
/// `Arc<str>` first. [`Frame`] hashes through the same view: an owned key
/// and a borrowed probe of the same frame always land in the same bucket.
trait FrameKey {
    fn key(&self) -> (&str, &str, u32);
}

impl FrameKey for Frame {
    fn key(&self) -> (&str, &str, u32) {
        (&self.function, &self.file, self.line)
    }
}

impl FrameKey for (&str, &str, u32) {
    fn key(&self) -> (&str, &str, u32) {
        *self
    }
}

impl Hash for Frame {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl Hash for dyn FrameKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl PartialEq for dyn FrameKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for dyn FrameKey + '_ {}

impl<'a> Borrow<dyn FrameKey + 'a> for Frame {
    fn borrow(&self) -> &(dyn FrameKey + 'a) {
        self
    }
}

#[derive(Default)]
struct Inner {
    frames: Vec<Frame>,
    by_frame: HashMap<Frame, FrameId>,
}

/// Source of [`FrameTable::id`]s.
static TABLE_IDS: AtomicU64 = AtomicU64::new(0);

/// Thread-safe interner mapping [`Frame`]s to dense [`FrameId`]s.
///
/// One table is owned by each Dimmunix runtime; signatures loaded from disk
/// are re-interned through it, so `FrameId` equality is meaningful within a
/// runtime regardless of where a signature came from.
pub struct FrameTable {
    id: u64,
    inner: RwLock<Inner>,
}

impl Default for FrameTable {
    fn default() -> Self {
        Self {
            id: TABLE_IDS.fetch_add(1, Ordering::Relaxed),
            inner: RwLock::default(),
        }
    }
}

impl FrameTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Process-unique identity of this table, never reused — unlike its
    /// address, which a later table can inherit. Caches of this table's
    /// [`FrameId`]s that may outlive it key on this.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Interns a frame, returning its id (existing or fresh). A hit
    /// allocates nothing.
    pub fn intern(&self, function: &str, file: &str, line: u32) -> FrameId {
        let probe = (function, file, line);
        let probe: &dyn FrameKey = &probe;
        // Fast path: read lock only.
        if let Some(&id) = self.inner.read().by_frame.get(probe) {
            return id;
        }
        let mut inner = self.inner.write();
        if let Some(&id) = inner.by_frame.get(probe) {
            return id;
        }
        let frame = Frame {
            function: function.into(),
            file: file.into(),
            line,
        };
        let id =
            FrameId(u32::try_from(inner.frames.len()).expect("more than u32::MAX distinct frames"));
        inner.frames.push(frame.clone());
        inner.by_frame.insert(frame, id);
        id
    }

    /// Returns the frame for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn resolve(&self, id: FrameId) -> Frame {
        self.inner.read().frames[id.0 as usize].clone()
    }

    /// Number of distinct frames interned so far.
    pub fn len(&self) -> usize {
        self.inner.read().frames.len()
    }

    /// Whether no frame has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap footprint in bytes (for the §7.4 resource report).
    pub fn approx_bytes(&self) -> usize {
        let inner = self.inner.read();
        inner
            .frames
            .iter()
            .map(|f| f.function.len() + f.file.len() + core::mem::size_of::<Frame>() * 2)
            .sum::<usize>()
            + inner.frames.len() * core::mem::size_of::<FrameId>()
    }
}

impl fmt::Debug for FrameTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameTable")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let t = FrameTable::new();
        let a = t.intern("update", "main.rs", 3);
        let b = t.intern("update", "main.rs", 3);
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_sites_get_distinct_ids() {
        let t = FrameTable::new();
        let a = t.intern("update", "main.rs", 3);
        let b = t.intern("update", "main.rs", 4);
        let c = t.intern("main", "main.rs", 3);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn every_table_has_its_own_id() {
        let (a, b) = (FrameTable::new(), FrameTable::new());
        assert_ne!(a.id(), b.id());
        let dead = a.id();
        drop(a);
        assert_ne!(FrameTable::new().id(), dead, "ids are never reused");
    }

    #[test]
    fn resolve_roundtrip() {
        let t = FrameTable::new();
        let id = t.intern("lock_req", "net.rs", 14);
        let f = t.resolve(id);
        assert_eq!(&*f.function, "lock_req");
        assert_eq!(&*f.file, "net.rs");
        assert_eq!(f.line, 14);
        assert_eq!(f.to_string(), "lock_req (net.rs:14)");
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let t = std::sync::Arc::new(FrameTable::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let t = std::sync::Arc::clone(&t);
                std::thread::spawn(move || {
                    (0..100)
                        .map(|i| t.intern("f", "x.rs", i % 10))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<FrameId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(t.len(), 10);
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }
}
