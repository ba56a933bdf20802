//! Seeded input generators owned by the benchmark: the call-path pool, the
//! synthetic signature sets and the history files the program under test
//! loads. The same seed yields byte-identical inputs; the program only ever
//! sees what is generated here.

use dimmunix_core::{CycleKind, FrameTable, History, HistoryError, StackTable};
use std::collections::HashSet;
use std::path::Path;

/// One call-stack frame: `(function, file, line)`.
pub type Frame = (&'static str, &'static str, u32);
/// A call path, outermost frame first; the last frame is the lock site.
pub type FramePath = Vec<Frame>;

/// Paths in the pool (the paper's "uniformly distributed selection of call
/// stacks", §7.2.2).
pub const POOL_PATHS: usize = 256;
/// Frames per path (the paper's D = 10).
pub const PATH_DEPTH: usize = 10;
/// Matching depth of every generated signature (the paper's default).
pub const SIG_DEPTH: u8 = 4;
/// Locks a pair workload spreads its operations over.
pub const LOCKS: usize = 64;

const FILE: &str = "bench_app.rs";
const LEVEL_NAMES: [&str; 8] = [
    "handleRequest",
    "doFilter",
    "processEvent",
    "dispatch",
    "acquireSocket",
    "doForwardReq",
    "onEvent",
    "lockReq",
];
/// Distinct innermost lock-site frames: few, so shallow suffixes collide as
/// they do in programs that funnel many paths through one lock wrapper.
const LOCK_SITES: u32 = 4;

/// SplitMix64: small, seedable, and owned here so no other crate's RNG can
/// change the inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a `stream` label (one stream per input).
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The seeded op sequence of a pair loop: which lock, through which path.
/// Xorshift, because it is drawn inside the measured loop.
#[derive(Clone, Debug)]
pub struct Walk(u64);

impl Walk {
    /// The walk for `seed` and a `stream` label (one stream per rep).
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(Rng::new(seed, stream).next_u64() | 1)
    }

    /// The next `(lock, path)`: a lock in `0..LOCKS`, a path in `paths`.
    #[inline]
    pub fn next(&mut self, paths: &std::ops::Range<usize>) -> (usize, usize) {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (
            (self.0 & (LOCKS as u64 - 1)) as usize,
            paths.start + ((self.0 >> 8) % paths.len() as u64) as usize,
        )
    }
}

/// The seeded pool of [`POOL_PATHS`] distinct depth-[`PATH_DEPTH`] paths.
pub fn build_pool(seed: u64) -> Vec<FramePath> {
    let mut rng = Rng::new(seed, 1);
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(POOL_PATHS);
    while pool.len() < POOL_PATHS {
        let mut path: FramePath = (0..PATH_DEPTH as u32 - 1)
            .map(|lvl| {
                let choice = rng.below(LEVEL_NAMES.len());
                (LEVEL_NAMES[choice], FILE, lvl * 100 + choice as u32)
            })
            .collect();
        path.push(("lockSite", FILE, rng.below(LOCK_SITES as usize) as u32));
        if seen.insert(path.clone()) {
            pool.push(path);
        }
    }
    pool
}

/// `count` distinct two-stack signatures over `paths` (indices into the
/// pool), as index pairs. Panics if `paths` cannot supply that many pairs.
pub fn synth_pairs(
    seed: u64,
    stream: u64,
    paths: std::ops::Range<usize>,
    count: usize,
) -> Vec<[usize; 2]> {
    let n = paths.len();
    assert!(
        count <= n * (n - 1) / 2,
        "{count} signatures from {n} paths"
    );
    let mut rng = Rng::new(seed, stream);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let a = paths.start + rng.below(n);
        let b = paths.start + rng.below(n);
        if a != b && seen.insert((a.min(b), a.max(b))) {
            out.push([a, b]);
        }
    }
    out
}

/// Interns `path` and returns its stack id.
fn intern(frames: &FrameTable, stacks: &StackTable, path: &[Frame]) -> dimmunix_core::StackId {
    let ids: Vec<_> = path
        .iter()
        .map(|&(f, file, line)| frames.intern(f, file, line))
        .collect();
    stacks.intern(&ids)
}

/// Writes the history file holding `pairs` (deadlock signatures of depth
/// [`SIG_DEPTH`] over `pool`) with `History::save_to`, through scratch
/// interners, so the runtime under test meets the signatures only by
/// loading the file.
pub fn write_history_file(
    path: &Path,
    pool: &[FramePath],
    pairs: &[[usize; 2]],
) -> Result<(), HistoryError> {
    let frames = FrameTable::new();
    let stacks = StackTable::new();
    let history = History::new();
    for &[a, b] in pairs {
        let members = vec![
            intern(&frames, &stacks, &pool[a]),
            intern(&frames, &stacks, &pool[b]),
        ];
        history.add(CycleKind::Deadlock, members, SIG_DEPTH);
    }
    history.save_to(path, &frames, &stacks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history_bytes(seed: u64, dir: &Path) -> Vec<u8> {
        let pool = build_pool(seed);
        let pairs = synth_pairs(seed, 2, 0..POOL_PATHS, 128);
        let file = dir.join(format!("gen-{seed}.dlk"));
        write_history_file(&file, &pool, &pairs).unwrap();
        std::fs::read(&file).unwrap()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(build_pool(7), build_pool(7));
        assert_ne!(build_pool(7), build_pool(8));
        assert_eq!(
            synth_pairs(7, 2, 0..POOL_PATHS, 1024),
            synth_pairs(7, 2, 0..POOL_PATHS, 1024)
        );
        assert_ne!(
            synth_pairs(7, 2, 0..POOL_PATHS, 64),
            synth_pairs(8, 2, 0..POOL_PATHS, 64)
        );
        let dir = std::env::temp_dir().join(format!("dimmunix-bench-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = history_bytes(7, &dir);
        assert_eq!(a, history_bytes(7, &dir), "history file is byte-identical");
        assert_ne!(a, history_bytes(8, &dir));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pool_has_the_stated_shape() {
        let pool = build_pool(1);
        assert_eq!(pool.len(), POOL_PATHS);
        assert!(pool.iter().all(|p| p.len() == PATH_DEPTH));
        let distinct: HashSet<_> = pool.iter().collect();
        assert_eq!(distinct.len(), POOL_PATHS);
    }

    #[test]
    fn pairs_are_distinct_and_in_range() {
        let pairs = synth_pairs(3, 9, 128..256, 500);
        let set: HashSet<_> = pairs.iter().map(|&[a, b]| (a.min(b), a.max(b))).collect();
        assert_eq!(set.len(), 500);
        assert!(pairs.iter().flatten().all(|i| (128..256).contains(i)));
    }
}
