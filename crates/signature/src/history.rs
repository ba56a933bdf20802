//! The persistent deadlock history.
//!
//! The history is the program's acquired immune memory: every signature ever
//! observed, persisted across restarts (§5.4). It is loaded at startup,
//! shared read-only with all application threads, and mutated only by the
//! monitor thread. Duplicate signatures are disallowed, so the history
//! cannot grow beyond the (finite) set of distinct stack multisets (§5.3).
//!
//! # On-disk format
//!
//! A line-oriented text format, ~200–1000 bytes per signature as in the
//! paper (§7.4):
//!
//! ```text
//! # dimmunix-history v2
//! signature kind=deadlock provenance=predicted depth=4 disabled=0 avoided=12 aborts=0
//! stack 2
//! frame main|src/main.rs|10
//! frame update|src/main.rs|3
//! stack 2
//! frame main|src/main.rs|11
//! frame update|src/main.rs|3
//! end
//! ```
//!
//! `|` and `\` inside function/file names are backslash-escaped. The format
//! is deliberately diff-able and hand-editable: the paper's §8 envisions
//! vendors shipping signature files to users as "vaccines", and users
//! deleting or disabling individual signatures.
//!
//! Format v2 adds the per-signature `provenance` attribute
//! (`detected` / `starved` / `predicted`) so vaccines synthesized by the
//! deadlock predictor stay distinguishable from suffered cycles. v1 files
//! load unchanged: a signature without the attribute defaults to the
//! provenance implied by its kind ([`Provenance::default_for`]). Files are
//! always saved as v2.

use crate::frame::FrameTable;
use crate::id_hash::IdSet;
use crate::signature::{CycleKind, Provenance, SigId, Signature};
use crate::stack::{StackId, StackTable};
use parking_lot::{Mutex, RwLock};
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Magic first line of a history file (current version, always written).
const HEADER: &str = "# dimmunix-history v2";
/// The pre-provenance format's header, still accepted on load.
const HEADER_V1: &str = "# dimmunix-history v1";

/// Errors produced while loading or saving a history file.
#[derive(Debug)]
pub enum HistoryError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed file content.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description.
        msg: String,
    },
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryError::Io(e) => write!(f, "history I/O error: {e}"),
            HistoryError::Parse { line, msg } => {
                write!(f, "history parse error at line {line}: {msg}")
            }
        }
    }
}

impl std::error::Error for HistoryError {}

impl From<io::Error> for HistoryError {
    fn from(e: io::Error) -> Self {
        HistoryError::Io(e)
    }
}

/// Report of a salvage load ([`History::salvage_file`]) over a torn or
/// corrupt history file: what was recovered from the valid prefix and what
/// the damaged tail lost.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistoryRecovery {
    /// Complete signatures recovered (and merged) from the valid prefix.
    pub recovered: usize,
    /// Signature blocks lost to the damaged tail: the block open at the
    /// failure point plus every `signature` line after it.
    pub dropped: usize,
    /// 1-based line where parsing stopped; `None` if the whole file parsed.
    pub first_bad_line: Option<usize>,
    /// The parse failure that truncated the load, if any.
    pub error: Option<String>,
    /// Whether the `crc` footer matched; `None` when the file has none
    /// (pre-footer files are still accepted).
    pub crc_ok: Option<bool>,
}

/// The persistent, duplicate-free collection of signatures.
///
/// Reads are lock-free for practical purposes: [`History::snapshot`] returns
/// an `Arc` to an immutable signature list that the avoidance hot path can
/// cache and iterate without touching the `RwLock` again until the
/// generation counter moves.
pub struct History {
    sigs: RwLock<Sigs>,
    /// Bumped on every change that invalidates cached snapshots/indexes
    /// (membership changes *and* matching-depth changes), always under the
    /// `sigs` write lock.
    generation: AtomicU64,
    /// Monotonic id source for new signatures.
    next_id: AtomicU64,
    /// Where [`History::save`] writes; set by [`History::open`].
    path: Mutex<Option<PathBuf>>,
}

/// The signature list and its duplicate filter, mutated together.
#[derive(Default)]
struct Sigs {
    /// Copy-on-write signature list: replaced wholesale on every mutation.
    list: Arc<Vec<Arc<Signature>>>,
    /// The sorted stack multiset of every listed signature, so the
    /// duplicate test of an add does not scan the list.
    members: IdSet<Box<[StackId]>>,
    /// The last generation that changed more than the list's tail (a
    /// removal or a [`History::touch`]): a consumer built before it must
    /// rebuild in full ([`History::appended_since`]).
    structural: u64,
}

impl History {
    /// Creates an empty, unbacked history.
    pub fn new() -> Self {
        Self {
            sigs: RwLock::default(),
            generation: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            path: Mutex::new(None),
        }
    }

    /// Opens the history backed by `path`: loads it if the file exists,
    /// otherwise starts empty. Subsequent [`History::save`] calls write back
    /// to the same file.
    pub fn open(
        path: impl Into<PathBuf>,
        frames: &FrameTable,
        stacks: &StackTable,
    ) -> Result<Self, HistoryError> {
        let path = path.into();
        let h = Self::new();
        if path.exists() {
            h.merge_file(&path, frames, stacks)?;
        }
        *h.path.lock() = Some(path);
        Ok(h)
    }

    /// The file this history saves to, if any.
    pub fn path(&self) -> Option<PathBuf> {
        self.path.lock().clone()
    }

    /// Sets (or clears) the backing file without reading it.
    pub fn set_path(&self, path: Option<PathBuf>) {
        *self.path.lock() = path;
    }

    /// Adds a signature for the given stack multiset unless an identical one
    /// already exists ("duplicate signatures are disallowed", §5.3). The
    /// provenance defaults to the one implied by `kind` (a suffered cycle).
    ///
    /// Returns the new signature, or `None` if it was a duplicate.
    pub fn add(
        &self,
        kind: CycleKind,
        stack_ids: Vec<StackId>,
        depth: u8,
    ) -> Option<Arc<Signature>> {
        self.add_with_provenance(kind, stack_ids, depth, Provenance::default_for(kind))
    }

    /// [`History::add`] with an explicit provenance tag — the predictor's
    /// archival path. Deduplication ignores provenance: a pattern already
    /// suffered (or already predicted) is not re-added.
    pub fn add_with_provenance(
        &self,
        kind: CycleKind,
        stack_ids: Vec<StackId>,
        depth: u8,
        provenance: Provenance,
    ) -> Option<Arc<Signature>> {
        self.add_batch_with_provenance(vec![(kind, stack_ids, depth, provenance)], |_| {})
            .pop()
    }

    /// Adds a whole batch of signatures under **one** generation bump.
    ///
    /// Each `(kind, stacks, depth, provenance)` item is deduplicated against
    /// the history *and* the earlier items of the same batch; `on_added` runs
    /// for every accepted signature *before* it becomes visible to snapshot
    /// readers, so callers can finalize it (e.g. set a calibration start
    /// depth) without a second invalidating [`History::touch`]. Returns the
    /// accepted signatures in batch order.
    ///
    /// This is the monitor's coalescing path: one monitor pass that detects
    /// or predicts N cycles used to cost N (or 2N, with calibration)
    /// generation bumps — N separate rebuilds downstream. Batched, it costs
    /// exactly one bump and one (delta) rebuild.
    pub fn add_batch_with_provenance(
        &self,
        batch: Vec<(CycleKind, Vec<StackId>, u8, Provenance)>,
        mut on_added: impl FnMut(&Arc<Signature>),
    ) -> Vec<Arc<Signature>> {
        self.add_batch_tagged(
            batch.into_iter().map(|(k, s, d, p)| (k, s, d, p, ())),
            |sig, ()| on_added(sig),
        )
    }

    /// [`History::add_batch_with_provenance`] over items that each carry a
    /// `tag` handed back to `on_added` with the accepted signature — how
    /// the loader restores a parsed block's counters onto the signature it
    /// became, whichever earlier blocks deduplication dropped.
    fn add_batch_tagged<T>(
        &self,
        batch: impl IntoIterator<Item = (CycleKind, Vec<StackId>, u8, Provenance, T)>,
        mut on_added: impl FnMut(&Arc<Signature>, T),
    ) -> Vec<Arc<Signature>> {
        let mut guard = self.sigs.write();
        let mut added: Vec<Arc<Signature>> = Vec::new();
        for (kind, mut stack_ids, depth, provenance, tag) in batch {
            stack_ids.sort_unstable();
            if !guard.members.insert(stack_ids.as_slice().into()) {
                continue;
            }
            let id = SigId(
                u32::try_from(self.next_id.fetch_add(1, Ordering::Relaxed))
                    .expect("more than u32::MAX signatures"),
            );
            let sig = Arc::new(Signature::with_provenance(
                id, kind, stack_ids, depth, provenance,
            ));
            on_added(&sig, tag);
            added.push(sig);
        }
        if added.is_empty() {
            return added;
        }
        let mut new_list = Vec::with_capacity(guard.list.len() + added.len());
        new_list.extend(guard.list.iter().cloned());
        new_list.extend(added.iter().cloned());
        guard.list = Arc::new(new_list);
        // Bumped before the write lock drops, so a reader holding the read
        // lock never sees a list ahead of the generation
        // ([`History::snapshot_with_generation`]).
        self.bump(&mut guard, false);
        drop(guard);
        added
    }

    /// Removes a signature (e.g. one recalibration found 100% obsolete, §8).
    /// Returns whether it was present.
    pub fn remove(&self, id: SigId) -> bool {
        let mut guard = self.sigs.write();
        let Some(sig) = guard.list.iter().find(|s| s.id == id).cloned() else {
            return false;
        };
        guard.members.remove(&sig.stacks);
        guard.list = Arc::new(guard.list.iter().filter(|s| s.id != id).cloned().collect());
        self.bump(&mut guard, true);
        drop(guard);
        true
    }

    /// Returns the signature whose stack multiset equals `stack_ids`.
    pub fn find_by_stacks(&self, stack_ids: &[StackId]) -> Option<Arc<Signature>> {
        let mut sorted = stack_ids.to_vec();
        sorted.sort_unstable();
        self.sigs
            .read()
            .list
            .iter()
            .find(|s| s.same_stacks(&sorted))
            .cloned()
    }

    /// Returns the signature with the given id.
    pub fn get(&self, id: SigId) -> Option<Arc<Signature>> {
        self.sigs.read().list.iter().find(|s| s.id == id).cloned()
    }

    /// Cheap immutable snapshot of the current signature list.
    pub fn snapshot(&self) -> Arc<Vec<Arc<Signature>>> {
        Arc::clone(&self.sigs.read().list)
    }

    /// The signature list together with the generation that produced it.
    /// Every generation bump happens under the list's write lock, so the
    /// pair is consistent: the list holds exactly the signatures added up to
    /// that generation, never one more. State stamped with the generation can
    /// therefore be extended by [`History::appended_since`] without applying
    /// an append twice.
    pub fn snapshot_with_generation(&self) -> (u64, Arc<Vec<Arc<Signature>>>) {
        let guard = self.sigs.read();
        (self.generation(), Arc::clone(&guard.list))
    }

    /// Number of signatures.
    pub fn len(&self) -> usize {
        self.sigs.read().list.len()
    }

    /// Whether the history holds no signatures.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Monotonic counter bumped on every change that could invalidate cached
    /// snapshots or match indexes.
    ///
    /// `SeqCst` on both sides: the avoidance engine's lock-free yield
    /// protocol re-checks the generation *after* publishing a wake
    /// registration, and its rebuild-boundary argument needs the bump, the
    /// registration push and the release-side drain to sit in one total
    /// order (see the engine's module docs).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Explicitly invalidates caches (call after changing a signature's
    /// matching depth, which lives outside the list structure). Structural:
    /// consumers must fully rebuild.
    pub fn touch(&self) {
        let mut guard = self.sigs.write();
        self.bump(&mut guard, true);
    }

    /// What an incremental consumer built at generation `gen` over the
    /// first `len` signatures must add to catch up: the list's tail past
    /// `len`, with the generation that tail brings it to. Both are read
    /// under one lock, so state stamped with the returned generation holds
    /// every append exactly once. `None` when only a full rebuild will do:
    /// a removal or a [`History::touch`] came after `gen`, or `gen` is the
    /// never-built sentinel `u64::MAX`.
    pub fn appended_since(&self, gen: u64, len: usize) -> Option<(u64, Vec<Arc<Signature>>)> {
        let guard = self.sigs.read();
        if gen == u64::MAX || guard.structural > gen {
            return None;
        }
        Some((self.generation(), guard.list.get(len..)?.to_vec()))
    }

    /// Moves the generation on. Taking the `sigs` guard keeps every bump
    /// under the write lock, so a reader of the list also reads the
    /// generation that produced it.
    fn bump(&self, sigs: &mut Sigs, structural: bool) {
        let gen = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        if structural {
            sigs.structural = gen;
        }
    }

    /// Serializes the history to its backing file.
    ///
    /// # Errors
    ///
    /// Fails if no backing path was configured or on I/O error.
    pub fn save(&self, frames: &FrameTable, stacks: &StackTable) -> Result<(), HistoryError> {
        let path = self.path().ok_or_else(|| {
            HistoryError::Io(io::Error::new(
                io::ErrorKind::NotFound,
                "history has no backing file",
            ))
        })?;
        self.save_to(&path, frames, stacks)
    }

    /// Serializes the history to an arbitrary path.
    ///
    /// Crash-safe: the payload ends with a `crc <hex>` footer (CRC-32 over
    /// everything before it), is written to a uniquely named temp file in
    /// the destination directory — process id plus a global counter, so
    /// concurrent saves of sibling files never collide on one temp name —
    /// fsynced, renamed over the destination, and the parent directory is
    /// fsynced so the rename itself survives a crash. A torn write can
    /// therefore only ever leave the *old* complete file, or a new file
    /// whose damage the CRC footer exposes at load time (and which
    /// [`History::salvage_file`] can recover a prefix of).
    pub fn save_to(
        &self,
        path: &Path,
        frames: &FrameTable,
        stacks: &StackTable,
    ) -> Result<(), HistoryError> {
        let mut buf: Vec<u8> = Vec::new();
        writeln!(buf, "{HEADER}")?;
        for sig in self.snapshot().iter() {
            writeln!(
                buf,
                "signature kind={} provenance={} depth={} disabled={} avoided={} aborts={}",
                sig.kind,
                sig.provenance,
                sig.depth(),
                u8::from(sig.is_disabled()),
                sig.avoided(),
                sig.aborts(),
            )?;
            for &stack_id in sig.stacks.iter() {
                let stack = stacks.resolve(stack_id);
                writeln!(buf, "stack {}", stack.len())?;
                for &fid in stack.iter() {
                    let f = frames.resolve(fid);
                    writeln!(
                        buf,
                        "frame {}|{}|{}",
                        escape(&f.function),
                        escape(&f.file),
                        f.line
                    )?;
                }
            }
            writeln!(buf, "end")?;
        }
        let crc = crate::crc::crc32(&buf);
        writeln!(buf, "crc {crc:08x}")?;

        static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
        let stem = path
            .file_name()
            .and_then(|f| f.to_str())
            .unwrap_or("history");
        let tmp = path.with_file_name(format!(
            "{stem}.{}.{}.tmp",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&buf)?;
            file.sync_all()?;
        }
        #[cfg(feature = "fault-inject")]
        let fault = dimmunix_inject::take_history_fault();
        #[cfg(feature = "fault-inject")]
        if matches!(
            fault,
            Some(dimmunix_inject::HistoryFault::CrashBeforeRename)
        ) {
            // Simulated crash between temp write and rename: the temp file
            // is left behind and the destination is never updated — the
            // exact on-disk state a real crash at this point leaves.
            return Ok(());
        }
        std::fs::rename(&tmp, path)?;
        // The rename is only durable once the directory entry is. Failing
        // to open the directory (some platforms/filesystems) loses only
        // durability of the rename, never atomicity, so it is not an error.
        if let Some(parent) = path.parent() {
            let dir = if parent.as_os_str().is_empty() {
                Path::new(".")
            } else {
                parent
            };
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        #[cfg(feature = "fault-inject")]
        apply_history_fault(path, fault)?;
        Ok(())
    }

    /// Merges the signatures found in `path` into this history, re-interning
    /// frames and stacks. Duplicates are skipped. Returns how many new
    /// signatures were added; they arrive as one batch (one generation
    /// bump), and a parse error adds none.
    ///
    /// This implements both startup loading and §8's live "vaccination":
    /// inserting a vendor-shipped signature into a running program's history
    /// without restarting it.
    pub fn merge_file(
        &self,
        path: &Path,
        frames: &FrameTable,
        stacks: &StackTable,
    ) -> Result<usize, HistoryError> {
        let data = std::fs::read(path)?;
        let recovery = self.parse_slice(&data, frames, stacks, false)?;
        Ok(recovery.recovered)
    }

    /// Best-effort load of a torn or corrupt history file: merges every
    /// complete signature before the first malformed line and reports what
    /// was recovered and what the damaged tail lost. Only I/O failures
    /// error; any parse damage is absorbed into the report.
    pub fn salvage_file(
        &self,
        path: &Path,
        frames: &FrameTable,
        stacks: &StackTable,
    ) -> Result<HistoryRecovery, HistoryError> {
        let data = std::fs::read(path)?;
        self.parse_slice(&data, frames, stacks, true)
    }

    /// [`History::open`], falling back to [`History::salvage_file`] when
    /// the file is torn or corrupt: the valid prefix is recovered, the
    /// history stays backed by `path` (the next save rewrites it whole),
    /// and the recovery report is returned alongside.
    pub fn open_salvaging(
        path: impl Into<PathBuf>,
        frames: &FrameTable,
        stacks: &StackTable,
    ) -> Result<(Self, Option<HistoryRecovery>), HistoryError> {
        let path = path.into();
        match Self::open(&path, frames, stacks) {
            Ok(h) => Ok((h, None)),
            Err(HistoryError::Parse { .. }) => {
                let h = Self::new();
                let recovery = h.salvage_file(&path, frames, stacks)?;
                *h.path.lock() = Some(path);
                Ok((h, Some(recovery)))
            }
            Err(e) => Err(e),
        }
    }

    /// The shared strict/salvage parser behind [`History::merge_file`] and
    /// [`History::salvage_file`]. Strict mode (`salvage == false`) returns
    /// a line-numbered [`HistoryError::Parse`] at the first malformed line
    /// and merges nothing; salvage mode stops there instead, keeps every
    /// signature parsed before it, and records the failure plus the number
    /// of signature blocks the damaged tail loses. Either way the parsed
    /// signatures are published as one batch: one generation bump, however
    /// many the file holds.
    fn parse_slice(
        &self,
        data: &[u8],
        frames: &FrameTable,
        stacks: &StackTable,
        salvage: bool,
    ) -> Result<HistoryRecovery, HistoryError> {
        // Raw byte lines with their offsets: the `crc` footer covers every
        // byte before its own line, so offsets must refer to the original
        // data, not any lossy re-encoding.
        let mut lines: Vec<(usize, &[u8])> = Vec::new();
        let mut off = 0;
        for chunk in data.split(|&b| b == b'\n') {
            lines.push((off, chunk));
            off += chunk.len() + 1;
        }

        #[derive(Default)]
        struct Pending {
            kind: Option<CycleKind>,
            provenance: Option<Provenance>,
            depth: u8,
            disabled: bool,
            avoided: u64,
            aborts: u64,
            stacks: Vec<StackId>,
            /// Frames of the stack currently being read + expected count.
            frames: Vec<crate::frame::FrameId>,
            expect: usize,
        }

        let mut out = HistoryRecovery::default();
        // Each complete block, tagged with itself for its counters.
        let mut parsed: Vec<(CycleKind, Vec<StackId>, u8, Provenance, Pending)> = Vec::new();
        let mut pending: Option<Pending> = None;
        let mut failure: Option<(usize, String)> = None;
        let mut after_footer = false;

        'parse: {
            if data.is_empty() {
                failure = Some((1, "empty history file".into()));
                break 'parse;
            }
            match std::str::from_utf8(lines[0].1) {
                Ok(first) if first.trim() == HEADER || first.trim() == HEADER_V1 => {}
                Ok(first) => {
                    failure = Some((1, format!("bad header {first:?}")));
                    break 'parse;
                }
                Err(_) => {
                    failure = Some((1, "invalid UTF-8".into()));
                    break 'parse;
                }
            }

            for (i, &(offset, raw)) in lines.iter().enumerate().skip(1) {
                let lineno = i + 1;
                let step = (|| -> Result<(), String> {
                    let line = std::str::from_utf8(raw)
                        .map_err(|_| "invalid UTF-8".to_string())?
                        .trim();
                    if line.is_empty() || line.starts_with('#') {
                        return Ok(());
                    }
                    if after_footer {
                        return Err("content after crc footer".into());
                    }
                    if let Some(rest) = line.strip_prefix("crc ") {
                        if pending.is_some() {
                            return Err("crc footer inside signature".into());
                        }
                        let stored = u32::from_str_radix(rest.trim(), 16)
                            .map_err(|_| format!("bad crc footer {rest:?}"))?;
                        let computed = crate::crc::crc32(&data[..offset]);
                        after_footer = true;
                        out.crc_ok = Some(stored == computed);
                        if stored != computed {
                            return Err(format!(
                                "crc mismatch: footer {stored:08x}, computed {computed:08x}"
                            ));
                        }
                        return Ok(());
                    }
                    if let Some(rest) = line.strip_prefix("signature ") {
                        if pending.is_some() {
                            return Err("nested signature".into());
                        }
                        let mut p = Pending {
                            depth: 4,
                            ..Default::default()
                        };
                        for kv in rest.split_whitespace() {
                            let (k, v) = kv
                                .split_once('=')
                                .ok_or_else(|| format!("bad attribute {kv:?}"))?;
                            match k {
                                "kind" => {
                                    p.kind = Some(match v {
                                        "deadlock" => CycleKind::Deadlock,
                                        "starvation" => CycleKind::Starvation,
                                        _ => return Err(format!("bad kind {v:?}")),
                                    })
                                }
                                "provenance" => {
                                    p.provenance = Some(
                                        Provenance::parse(v)
                                            .ok_or_else(|| format!("bad provenance {v:?}"))?,
                                    )
                                }
                                "depth" => p.depth = parse_num_msg(v)?,
                                "disabled" => p.disabled = parse_num_msg::<u8>(v)? != 0,
                                "avoided" => p.avoided = parse_num_msg(v)?,
                                "aborts" => p.aborts = parse_num_msg(v)?,
                                _ => return Err(format!("unknown attribute {k:?}")),
                            }
                        }
                        pending = Some(p);
                    } else if let Some(rest) = line.strip_prefix("stack ") {
                        let p = pending
                            .as_mut()
                            .ok_or_else(|| "stack outside signature".to_string())?;
                        if p.expect != p.frames.len() {
                            return Err("previous stack incomplete".into());
                        }
                        if !p.frames.is_empty() {
                            p.stacks.push(stacks.intern(&p.frames));
                            p.frames.clear();
                        }
                        p.expect = parse_num_msg(rest)?;
                        if p.expect == 0 {
                            return Err("empty stack".into());
                        }
                    } else if let Some(rest) = line.strip_prefix("frame ") {
                        let p = pending
                            .as_mut()
                            .ok_or_else(|| "frame outside signature".to_string())?;
                        let parts = split_escaped(rest);
                        if parts.len() != 3 {
                            return Err(format!("bad frame {rest:?}"));
                        }
                        let lno: u32 = parse_num_msg(&parts[2])?;
                        p.frames.push(frames.intern(&parts[0], &parts[1], lno));
                        if p.frames.len() > p.expect {
                            return Err("more frames than declared".into());
                        }
                    } else if line == "end" {
                        let mut p = pending
                            .take()
                            .ok_or_else(|| "end outside signature".to_string())?;
                        if p.expect != p.frames.len() {
                            return Err("last stack incomplete".into());
                        }
                        if !p.frames.is_empty() {
                            p.stacks.push(stacks.intern(&p.frames));
                        }
                        let kind = p.kind.ok_or_else(|| "signature missing kind".to_string())?;
                        if p.stacks.is_empty() {
                            return Err("signature with no stacks".into());
                        }
                        // v1 signatures (no provenance attribute) default to
                        // the provenance implied by their kind: v1 histories
                        // only ever held suffered cycles.
                        let provenance = p
                            .provenance
                            .unwrap_or_else(|| Provenance::default_for(kind));
                        let stacks = std::mem::take(&mut p.stacks);
                        parsed.push((kind, stacks, p.depth, provenance, p));
                    } else {
                        return Err(format!("unrecognized line {line:?}"));
                    }
                    Ok(())
                })();
                if let Err(msg) = step {
                    failure = Some((lineno, msg));
                    break 'parse;
                }
            }
            if pending.is_some() {
                let eof_line = lines
                    .iter()
                    .rposition(|(_, raw)| !raw.is_empty())
                    .map(|i| i + 1)
                    .unwrap_or(1);
                failure = Some((eof_line, "unterminated signature".into()));
            }
        }

        if !salvage {
            if let Some((lineno, msg)) = failure {
                return Err(parse_err(lineno, msg));
            }
        }
        out.recovered = self
            .add_batch_tagged(parsed, |sig, block| {
                sig.set_disabled(block.disabled);
                sig.set_avoided(block.avoided);
                sig.set_aborts(block.aborts);
            })
            .len();
        if let Some((lineno, msg)) = failure {
            // The open block at the failure point is lost, plus every
            // signature block that starts at or after the failing line —
            // including the failing line itself when the damage hit an
            // opener (e.g. a truncation mid-`signature` line).
            out.dropped = usize::from(pending.is_some());
            for &(_, raw) in lines.get(lineno.saturating_sub(1)..).unwrap_or_default() {
                if String::from_utf8_lossy(raw)
                    .trim_start()
                    .starts_with("signature ")
                {
                    out.dropped += 1;
                }
            }
            out.first_bad_line = Some(lineno);
            out.error = Some(msg);
        }
        Ok(out)
    }

    /// Size of the serialized history in bytes (for the §7.4 report).
    pub fn serialized_bytes(&self, frames: &FrameTable, stacks: &StackTable) -> usize {
        let mut buf = Vec::new();
        buf.extend_from_slice(HEADER.as_bytes());
        for sig in self.snapshot().iter() {
            buf.extend_from_slice(
                b"\nsignature kind=XXXXXXXX provenance=XXXXXXXXX depth=XX disabled=X",
            );
            for &stack_id in sig.stacks.iter() {
                let stack = stacks.resolve(stack_id);
                buf.extend_from_slice(b"\nstack NN");
                for &fid in stack.iter() {
                    let f = frames.resolve(fid);
                    buf.extend_from_slice(b"\nframe ||123456");
                    buf.extend_from_slice(f.function.as_bytes());
                    buf.extend_from_slice(f.file.as_bytes());
                }
            }
            buf.extend_from_slice(b"\nend");
        }
        buf.len()
    }
}

impl Default for History {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("History")
            .field("len", &self.len())
            .field("generation", &self.generation())
            .field("path", &self.path())
            .finish()
    }
}

fn parse_err(line: usize, msg: impl Into<String>) -> HistoryError {
    HistoryError::Parse {
        line,
        msg: msg.into(),
    }
}

fn parse_num_msg<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}

/// Applies the scripted post-publish damage of a [`dimmunix_inject::HistoryFault`]
/// to the just-renamed file — the torn-file generator for salvage tests.
#[cfg(feature = "fault-inject")]
fn apply_history_fault(
    path: &Path,
    fault: Option<dimmunix_inject::HistoryFault>,
) -> io::Result<()> {
    use dimmunix_inject::HistoryFault;
    match fault {
        None | Some(HistoryFault::CrashBeforeRename) => {}
        Some(HistoryFault::CorruptByte { offset }) => {
            let mut data = std::fs::read(path)?;
            if !data.is_empty() {
                let i = (offset as usize) % data.len();
                data[i] ^= 0xFF;
                std::fs::write(path, data)?;
            }
        }
        Some(HistoryFault::TruncateAt { offset }) => {
            let data = std::fs::read(path)?;
            if !data.is_empty() {
                let i = (offset as usize) % data.len();
                std::fs::write(path, &data[..i])?;
            }
        }
    }
    Ok(())
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '|' => out.push_str("\\|"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Splits a `frame` payload on unescaped `|`, unescaping each field.
fn split_escaped(s: &str) -> Vec<String> {
    let mut parts = vec![String::new()];
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some('n') => parts.last_mut().expect("nonempty").push('\n'),
                Some(e) => parts.last_mut().expect("nonempty").push(e),
                None => {}
            },
            '|' => parts.push(String::new()),
            _ => parts.last_mut().expect("nonempty").push(c),
        }
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameTable;
    use crate::stack::StackTable;

    struct Env {
        frames: FrameTable,
        stacks: StackTable,
    }

    impl Env {
        fn new() -> Self {
            Self {
                frames: FrameTable::new(),
                stacks: StackTable::new(),
            }
        }

        fn stack(&self, lines: &[u32]) -> StackId {
            let f: Vec<_> = lines
                .iter()
                .map(|&l| self.frames.intern("f", "x.rs", l))
                .collect();
            self.stacks.intern(&f)
        }
    }

    #[test]
    fn add_rejects_duplicates() {
        let env = Env::new();
        let h = History::new();
        let a = env.stack(&[1, 2]);
        let b = env.stack(&[3, 4]);
        assert!(h.add(CycleKind::Deadlock, vec![a, b], 4).is_some());
        // Same multiset in different order is still a duplicate.
        assert!(h.add(CycleKind::Deadlock, vec![b, a], 4).is_none());
        assert_eq!(h.len(), 1);
        // A true multiset difference is not a duplicate.
        assert!(h.add(CycleKind::Deadlock, vec![a, a], 4).is_some());
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn generation_moves_on_every_mutation() {
        let env = Env::new();
        let h = History::new();
        let g0 = h.generation();
        let sig = h
            .add(CycleKind::Deadlock, vec![env.stack(&[1])], 4)
            .unwrap();
        let g1 = h.generation();
        assert!(g1 > g0);
        h.touch();
        assert!(h.generation() > g1);
        let g2 = h.generation();
        assert!(h.remove(sig.id));
        assert!(h.generation() > g2);
        assert!(!h.remove(sig.id));
    }

    #[test]
    fn snapshot_is_immutable_view() {
        let env = Env::new();
        let h = History::new();
        h.add(CycleKind::Deadlock, vec![env.stack(&[1])], 4);
        let snap = h.snapshot();
        h.add(CycleKind::Deadlock, vec![env.stack(&[2])], 4);
        assert_eq!(snap.len(), 1);
        assert_eq!(h.snapshot().len(), 2);
    }

    #[test]
    fn save_and_reload_roundtrip() {
        let env = Env::new();
        let dir = std::env::temp_dir().join(format!("dimmunix-hist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.dlk");

        let h = History::new();
        let s1 = env.stack(&[10, 3]);
        let s2 = env.stack(&[11, 3]);
        let sig = h.add(CycleKind::Deadlock, vec![s1, s2], 4).unwrap();
        sig.record_avoided();
        sig.record_avoided();
        sig.record_abort();
        let starv = h.add(CycleKind::Starvation, vec![s1, s1, s2], 2).unwrap();
        starv.set_disabled(true);
        h.save_to(&path, &env.frames, &env.stacks).unwrap();

        // Reload into a fresh universe (fresh interners).
        let env2 = Env::new();
        let h2 = History::open(&path, &env2.frames, &env2.stacks).unwrap();
        assert_eq!(h2.len(), 2);
        let snap = h2.snapshot();
        let d = snap.iter().find(|s| s.kind == CycleKind::Deadlock).unwrap();
        assert_eq!(d.depth(), 4);
        assert_eq!(d.avoided(), 2);
        assert_eq!(d.aborts(), 1);
        assert_eq!(d.size(), 2);
        let s = snap
            .iter()
            .find(|s| s.kind == CycleKind::Starvation)
            .unwrap();
        assert!(s.is_disabled());
        assert_eq!(s.size(), 3);

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_skips_known_signatures() {
        let env = Env::new();
        let dir = std::env::temp_dir().join(format!("dimmunix-hist2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("merge.dlk");

        let h = History::new();
        h.add(
            CycleKind::Deadlock,
            vec![env.stack(&[1, 2]), env.stack(&[2, 1])],
            4,
        );
        h.save_to(&path, &env.frames, &env.stacks).unwrap();

        // Merging the same file back adds nothing.
        assert_eq!(h.merge_file(&path, &env.frames, &env.stacks).unwrap(), 0);
        assert_eq!(h.len(), 1);

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_roundtrips_all_three_provenance_tags() {
        let env = Env::new();
        let path = std::env::temp_dir().join(format!("dimmunix-prov-{}.dlk", std::process::id()));

        let h = History::new();
        h.add_with_provenance(
            CycleKind::Deadlock,
            vec![env.stack(&[1, 2]), env.stack(&[2, 1])],
            4,
            Provenance::Detected,
        )
        .unwrap();
        h.add_with_provenance(
            CycleKind::Starvation,
            vec![env.stack(&[3, 4]), env.stack(&[4, 3])],
            2,
            Provenance::Starved,
        )
        .unwrap();
        h.add_with_provenance(
            CycleKind::Deadlock,
            vec![env.stack(&[5, 6]), env.stack(&[6, 5])],
            4,
            Provenance::Predicted,
        )
        .unwrap();
        h.save_to(&path, &env.frames, &env.stacks).unwrap();

        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.starts_with("# dimmunix-history v2"));
        for tag in ["detected", "starved", "predicted"] {
            assert!(
                written.contains(&format!("provenance={tag}")),
                "missing provenance={tag} in:\n{written}"
            );
        }

        let env2 = Env::new();
        let h2 = History::open(&path, &env2.frames, &env2.stacks).unwrap();
        assert_eq!(h2.len(), 3);
        let snap = h2.snapshot();
        let provs: Vec<Provenance> = snap.iter().map(|s| s.provenance).collect();
        assert!(provs.contains(&Provenance::Detected));
        assert!(provs.contains(&Provenance::Starved));
        assert!(provs.contains(&Provenance::Predicted));
        // The predicted vaccine keeps its kind (it anticipates a deadlock).
        let p = snap
            .iter()
            .find(|s| s.provenance == Provenance::Predicted)
            .unwrap();
        assert_eq!(p.kind, CycleKind::Deadlock);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_file_loads_with_default_provenance() {
        let env = Env::new();
        let path = std::env::temp_dir().join(format!("dimmunix-v1-{}.dlk", std::process::id()));
        std::fs::write(
            &path,
            "# dimmunix-history v1\n\
             signature kind=deadlock depth=4 disabled=0 avoided=2 aborts=0\n\
             stack 1\nframe a|x.rs|1\nstack 1\nframe b|x.rs|2\nend\n\
             signature kind=starvation depth=2 disabled=0 avoided=0 aborts=0\n\
             stack 1\nframe c|x.rs|3\nstack 1\nframe d|x.rs|4\nend\n",
        )
        .unwrap();
        let h = History::open(&path, &env.frames, &env.stacks).unwrap();
        assert_eq!(h.len(), 2);
        let snap = h.snapshot();
        let d = snap.iter().find(|s| s.kind == CycleKind::Deadlock).unwrap();
        assert_eq!(d.provenance, Provenance::Detected);
        assert_eq!(d.avoided(), 2);
        let s = snap
            .iter()
            .find(|s| s.kind == CycleKind::Starvation)
            .unwrap();
        assert_eq!(s.provenance, Provenance::Starved);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_provenance_reports_its_line() {
        let env = Env::new();
        let path =
            std::env::temp_dir().join(format!("dimmunix-badprov-{}.dlk", std::process::id()));
        // The bad attribute sits on line 3.
        std::fs::write(
            &path,
            "# dimmunix-history v2\n\n\
             signature kind=deadlock provenance=banana depth=4\n\
             stack 1\nframe a|x.rs|1\nend\n",
        )
        .unwrap();
        let h = History::new();
        match h.merge_file(&path, &env.frames, &env.stacks) {
            Err(HistoryError::Parse { line: 3, msg }) => {
                assert!(msg.contains("provenance"), "unexpected message {msg:?}");
            }
            other => panic!("expected provenance parse error at line 3, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_missing_file_starts_empty() {
        let env = Env::new();
        let path = std::env::temp_dir().join("definitely-missing-dimmunix.dlk");
        std::fs::remove_file(&path).ok();
        let h = History::open(&path, &env.frames, &env.stacks).unwrap();
        assert!(h.is_empty());
        assert_eq!(h.path().unwrap(), path);
    }

    #[test]
    fn parse_rejects_garbage() {
        let env = Env::new();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("dimmunix-bad-{}.dlk", std::process::id()));
        std::fs::write(&path, "not a history\n").unwrap();
        let h = History::new();
        match h.merge_file(&path, &env.frames, &env.stacks) {
            Err(HistoryError::Parse { line: 1, .. }) => {}
            other => panic!("expected header parse error, got {other:?}"),
        }
        std::fs::write(
            &path,
            "# dimmunix-history v1\nsignature kind=deadlock\nstack 2\nframe a|b|1\nend\n",
        )
        .unwrap();
        assert!(h.merge_file(&path, &env.frames, &env.stacks).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn escaping_roundtrips_weird_names() {
        let env = Env::new();
        let fid = env.frames.intern("op|weird\\name", "dir|x/y.rs", 7);
        let sid = env.stacks.intern(&[fid]);
        let h = History::new();
        h.add(CycleKind::Deadlock, vec![sid], 4);
        let path = std::env::temp_dir().join(format!("dimmunix-esc-{}.dlk", std::process::id()));
        h.save_to(&path, &env.frames, &env.stacks).unwrap();

        let env2 = Env::new();
        let h2 = History::open(&path, &env2.frames, &env2.stacks).unwrap();
        assert_eq!(h2.len(), 1);
        let sig = h2.snapshot()[0].clone();
        let stack = env2.stacks.resolve(sig.stacks[0]);
        let f = env2.frames.resolve(stack[0]);
        assert_eq!(&*f.function, "op|weird\\name");
        assert_eq!(&*f.file, "dir|x/y.rs");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn appended_since_reports_the_tail_and_its_generation() {
        let env = Env::new();
        let h = History::new();
        let g0 = h.generation();
        let a = h
            .add(CycleKind::Deadlock, vec![env.stack(&[1])], 4)
            .unwrap();
        let g1 = h.generation();
        let b = h
            .add(CycleKind::Deadlock, vec![env.stack(&[2])], 4)
            .unwrap();
        let g2 = h.generation();
        let tail = |gen, len| {
            let (to, sigs) = h
                .appended_since(gen, len)
                .expect("append-only span reported structural");
            (to, sigs.iter().map(|s| s.id).collect::<Vec<_>>())
        };
        // Whatever the consumer's generation, the tail runs to the head and
        // comes with the head's generation, its new stamp.
        assert_eq!(tail(g0, 0), (g2, vec![a.id, b.id]));
        assert_eq!(tail(g1, 1), (g2, vec![b.id]));
        // A consumer already at the head has nothing to do.
        assert_eq!(tail(g2, 2), (g2, vec![]));
        // A count past the list is no consumer of this history.
        assert!(h.appended_since(g2, 3).is_none());
    }

    #[test]
    fn appended_since_refuses_a_span_with_a_structural_bump() {
        let env = Env::new();
        let h = History::new();
        let sig = h
            .add(CycleKind::Deadlock, vec![env.stack(&[1])], 4)
            .unwrap();
        let g = h.generation();
        h.touch();
        assert!(h.appended_since(g, 1).is_none());
        let g = h.generation();
        let empty = h.appended_since(g, 1).map(|(to, sigs)| (to, sigs.len()));
        assert_eq!(empty, Some((g, 0)));
        h.add(CycleKind::Deadlock, vec![env.stack(&[2])], 4)
            .unwrap();
        h.remove(sig.id);
        assert!(h.appended_since(g, 1).is_none());
        // Appends after the structural bump extend again.
        let g = h.generation();
        h.add(CycleKind::Deadlock, vec![env.stack(&[3])], 4)
            .unwrap();
        assert_eq!(h.appended_since(g, 1).map(|(_, s)| s.len()), Some(1));
        // The sentinel generation never extends.
        assert!(h.appended_since(u64::MAX, 0).is_none());
    }

    /// A `(generation, list)` pair read while another thread appends holds
    /// exactly the signatures added up to that generation: one bump per add
    /// here, so as many as the generation.
    #[test]
    fn a_snapshot_never_runs_ahead_of_its_generation() {
        let env = Env::new();
        let h = History::new();
        let stacks: Vec<StackId> = (0..2000).map(|i| env.stack(&[i])).collect();
        std::thread::scope(|s| {
            s.spawn(|| {
                for &stack in &stacks {
                    h.add(CycleKind::Deadlock, vec![stack], 4).unwrap();
                }
            });
            loop {
                let (gen, list) = h.snapshot_with_generation();
                assert_eq!(list.len() as u64, gen, "list and generation disagree");
                if list.len() == stacks.len() {
                    break;
                }
            }
        });
    }

    #[test]
    fn batch_add_costs_one_generation_and_dedups() {
        let env = Env::new();
        let h = History::new();
        let a = env.stack(&[1]);
        let b = env.stack(&[2]);
        h.add(CycleKind::Deadlock, vec![a], 4).unwrap();
        let g = h.generation();
        let mut finalized = 0;
        let added = h.add_batch_with_provenance(
            vec![
                // Duplicate of an existing signature: skipped.
                (CycleKind::Deadlock, vec![a], 4, Provenance::Predicted),
                (CycleKind::Deadlock, vec![b], 4, Provenance::Predicted),
                // Duplicate of an earlier batch item: skipped.
                (CycleKind::Deadlock, vec![b], 4, Provenance::Predicted),
                (CycleKind::Deadlock, vec![a, b], 4, Provenance::Predicted),
            ],
            |sig| {
                // Finalization runs before visibility: depth changes here
                // must not require a second bump.
                sig.set_depth(2);
                finalized += 1;
            },
        );
        assert_eq!(added.len(), 2);
        assert_eq!(finalized, 2);
        assert_eq!(h.generation(), g + 1, "one bump for the whole batch");
        assert_eq!(h.len(), 3);
        assert!(added.iter().all(|s| s.depth() == 2));
        let (_, sigs) = h.appended_since(g, 1).expect("a batch is a pure append");
        assert_eq!(sigs.len(), 2);
        // An all-duplicate batch is a no-op: no bump at all.
        let g2 = h.generation();
        let none = h.add_batch_with_provenance(
            vec![(CycleKind::Deadlock, vec![b], 4, Provenance::Predicted)],
            |_| {},
        );
        assert!(none.is_empty());
        assert_eq!(h.generation(), g2);
    }

    #[test]
    fn a_file_merges_under_one_generation_bump() {
        let env = Env::new();
        let path = std::env::temp_dir().join(format!("dimmunix-batch-{}.dlk", std::process::id()));
        let h = History::new();
        for i in 0..40_u32 {
            let sig = h
                .add(
                    CycleKind::Deadlock,
                    vec![env.stack(&[i, 1]), env.stack(&[i, 2])],
                    4,
                )
                .unwrap();
            sig.set_avoided(u64::from(i));
            sig.set_aborts(u64::from(i % 3));
            sig.set_disabled(i % 5 == 0);
        }
        h.save_to(&path, &env.frames, &env.stacks).unwrap();

        let live = History::new();
        let known = live
            .add(
                CycleKind::Deadlock,
                vec![env.stack(&[7, 1]), env.stack(&[7, 2])],
                4,
            )
            .unwrap();
        let g = live.generation();
        let added = live.merge_file(&path, &env.frames, &env.stacks).unwrap();
        assert_eq!(added, h.len() - 1, "the known signature is skipped");
        assert_eq!(live.generation(), g + 1);
        let (_, sigs) = live.appended_since(g, 1).expect("a merge is a pure append");
        assert_eq!(sigs.len(), added);
        // Counters land on the signature their block described, whichever
        // blocks before it were duplicates.
        assert_eq!(known.avoided(), 0, "a duplicate block restores nothing");
        for (i, sig) in h.snapshot().iter().enumerate().filter(|(i, _)| *i != 7) {
            let loaded = live.find_by_stacks(&sig.stacks).unwrap();
            assert_eq!(loaded.avoided(), i as u64);
            assert_eq!(loaded.aborts(), i as u64 % 3);
            assert_eq!(loaded.is_disabled(), i % 5 == 0);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_strict_parse_error_merges_nothing() {
        let env = Env::new();
        let path = std::env::temp_dir().join(format!("dimmunix-strict-{}.dlk", std::process::id()));
        std::fs::write(
            &path,
            "# dimmunix-history v2\n\
             signature kind=deadlock depth=4\nstack 1\nframe a|x.rs|1\nend\n\
             signature kind=banana depth=4\nstack 1\nframe b|x.rs|2\nend\n",
        )
        .unwrap();
        let h = History::new();
        let g = h.generation();
        assert!(h.merge_file(&path, &env.frames, &env.stacks).is_err());
        assert_eq!((h.len(), h.generation()), (0, g));
        // Salvage keeps the block before the damage.
        let rec = h.salvage_file(&path, &env.frames, &env.stacks).unwrap();
        assert_eq!((rec.recovered, rec.dropped, h.len()), (1, 1, 1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_removed_signature_can_be_added_again() {
        let env = Env::new();
        let h = History::new();
        let stacks = vec![env.stack(&[1]), env.stack(&[2])];
        let sig = h.add(CycleKind::Deadlock, stacks.clone(), 4).unwrap();
        assert!(h.add(CycleKind::Deadlock, stacks.clone(), 4).is_none());
        assert!(h.remove(sig.id));
        assert!(h.add(CycleKind::Deadlock, stacks, 4).is_some());
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn serialized_size_is_within_paper_band() {
        // §7.4: "on the order of 200-1000 bytes per signature".
        let env = Env::new();
        let h = History::new();
        for i in 0..10_u32 {
            let s1 = env.stack(&[i * 2 + 100, 3]);
            let s2 = env.stack(&[i * 2 + 101, 3]);
            h.add(CycleKind::Deadlock, vec![s1, s2], 4);
        }
        let bytes = h.serialized_bytes(&env.frames, &env.stacks);
        let per_sig = bytes / 10;
        assert!(per_sig < 1000, "{per_sig} bytes per signature");
    }
}
