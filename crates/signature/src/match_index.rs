//! Suffix-hash index over the history.
//!
//! The paper's `request` hook walks the history and, for each signature,
//! checks whether the current call stack matches one of the signature's
//! member stacks at the signature's matching depth (§5.6). Dimmunix keys
//! its metadata by hashed call stack, and this is the equivalent: an index
//! from depth-truncated stack suffixes to the signature members that carry
//! them. It is the avoidance engine's only way from a call stack to
//! signatures; the walk survives in `dimmunix_core`'s `ReferenceCore`, the
//! oracle every differential test compares this index against.
//!
//! There is **one** `(depth, suffix)` map: the [`BucketLayout`], which
//! assigns every distinct member key of one history generation a **dense
//! slot**. Everything else is an array indexed by that slot — the
//! [`MatchIndex`]'s [`CandidateSet`]s here, the avoidance engine's versioned
//! `Allowed` buckets there (one per slot, sized from
//! [`BucketLayout::len`] at rebuild time; the key set is known up front
//! because only entries whose suffix matches some signature member can ever
//! participate in an exact cover). A call stack is therefore resolved
//! against a generation **once**, by [`BucketLayout::slots_of`] — one
//! borrowed look-up per depth layer, no per-request key allocation — and the
//! slots it yields name its candidate sets and its buckets alike.
//!
//! Every candidate carries the signature's precomputed [`CoverKeys`]: one
//! `(stack, suffix, slot)` triple per member, ready for the lock-free
//! engine's emptiness prechecks and versioned-bucket reads without
//! resolving or re-hashing member stacks on the request path.

use crate::frame::FrameId;
use crate::history::History;
use crate::id_hash::IdMap;
use crate::signature::Signature;
use crate::stack::{suffix_of, StackId, StackTable};
use std::sync::Arc;

/// One signature member's precomputed bucket key: the member stack, its
/// suffix at the signature's matching depth, and the dense
/// [`BucketLayout`] slot the engine's versioned bucket for that key lives
/// at.
#[derive(Debug)]
pub struct MemberKey {
    /// The member stack id (`signature.stacks[i]` for member `i`).
    pub stack: StackId,
    /// The member stack's innermost `depth` frames.
    pub suffix: Box<[FrameId]>,
    /// Dense bucket slot of `(depth, suffix)` in the generation's
    /// [`BucketLayout`]; `None` until resolved, or when the key is not in
    /// the layout, which means no entry can be bucketed under it in the
    /// current table.
    pub slot: Option<u32>,
}

/// Precomputed per-signature cover keys: everything the exact-cover search
/// needs to probe the `Allowed` buckets, one [`MemberKey`] per member in
/// `signature.stacks` order.
#[derive(Debug)]
pub struct CoverKeys {
    /// The matching depth the keys were computed at (the signature's depth
    /// when the index was built).
    pub depth: u8,
    /// One key per member, aligned with `signature.stacks`.
    pub members: Vec<MemberKey>,
}

impl CoverKeys {
    /// Computes the member bucket keys for `sig` at `depth`, with slots
    /// unresolved. The index precomputes every candidate's keys through
    /// this at build time, at the signature's depth then, and the engine's
    /// cover search decides at that depth: a depth change rides a history
    /// generation bump, and so a rebuild.
    pub fn compute(sig: &Signature, depth: u8, stacks: &StackTable) -> Self {
        Self {
            depth,
            members: sig
                .stacks
                .iter()
                .map(|&stack| {
                    let frames = stacks.resolve(stack);
                    let suffix: Box<[FrameId]> = suffix_of(&frames, depth as usize).into();
                    MemberKey {
                        stack,
                        suffix,
                        slot: None,
                    }
                })
                .collect(),
        }
    }

    /// Fills each member's dense bucket slot from `layout`.
    pub fn resolve(&mut self, layout: &BucketLayout) {
        for key in &mut self.members {
            key.slot = layout.slot_of(self.depth, &key.suffix);
        }
    }
}

/// One depth layer of a [`BucketLayout`]: `suffix → dense slot`.
type SlotMap = IdMap<Box<[FrameId]>, u32>;

/// Dense bucket-slot directory of one history generation: every distinct
/// `(depth, suffix)` key across the enabled signatures' members gets one
/// slot in `[0, len)`, assigned in deterministic history-snapshot × member
/// order. The avoidance engine sizes its versioned bucket array from
/// [`BucketLayout::len`] and resolves each granted call stack to its
/// bucket slots with [`BucketLayout::slots_of`].
///
/// Slot assignments are **append-stable**: because slots are handed out in
/// snapshot × member order and the history only ever appends (removals and
/// depth changes force a full rebuild), [`BucketLayout::extended`] over the
/// appended signatures produces bit-identical slot numbering to a fresh
/// [`BucketLayout::build`] over the grown history — existing slots are
/// never renumbered, new keys take slots `[base.len, ..)`. Depth layers are
/// `Arc`-shared with the base layout; only layers gaining keys are cloned.
#[derive(Debug, Default)]
pub struct BucketLayout {
    /// `(depth, suffix → slot)`, ascending by depth (borrowed lookups).
    by_depth: Vec<(u8, Arc<SlotMap>)>,
    len: u32,
}

impl BucketLayout {
    /// Builds the layout for the current contents of `history`.
    pub fn build(history: &History, stacks: &StackTable) -> Self {
        Self::build_from(&history.snapshot(), stacks)
    }

    /// Builds the layout for one explicit signature snapshot. Consumers
    /// that also derive *other* state from the signature list (e.g.
    /// [`MatchIndex::build`]'s candidate sets) must build everything from
    /// a single snapshot — the history may be appended to concurrently,
    /// and state derived from two reads can disagree about which
    /// signatures exist.
    pub fn build_from(snapshot: &[Arc<Signature>], stacks: &StackTable) -> Self {
        let mut layout = Self::default();
        for sig in snapshot {
            layout.add_signature(sig, stacks);
        }
        layout.by_depth.sort_unstable_by_key(|&(d, _)| d);
        layout
    }

    /// Extends `base` with the member keys of `new_sigs` (appended to the
    /// history after `base` was built), without renumbering any existing
    /// slot. See the type docs for why the result is identical to a fresh
    /// build over the grown history.
    pub fn extended(base: &Self, new_sigs: &[Arc<Signature>], stacks: &StackTable) -> Self {
        let mut layout = Self {
            by_depth: base.by_depth.clone(),
            len: base.len,
        };
        for sig in new_sigs {
            layout.add_signature(sig, stacks);
        }
        layout.by_depth.sort_unstable_by_key(|&(d, _)| d);
        layout
    }

    /// Assigns dense slots to `sig`'s not-yet-present member keys.
    fn add_signature(&mut self, sig: &Arc<Signature>, stacks: &StackTable) {
        if sig.is_disabled() {
            return;
        }
        let depth = sig.depth();
        for &stack in &sig.stacks {
            let frames = stacks.resolve(stack);
            let suffix = suffix_of(&frames, depth as usize);
            let map = match self.by_depth.iter_mut().find(|(d, _)| *d == depth) {
                Some((_, map)) => map,
                None => {
                    self.by_depth.push((depth, Arc::default()));
                    &mut self.by_depth.last_mut().expect("just pushed").1
                }
            };
            if !map.contains_key(suffix) {
                Arc::make_mut(map).insert(suffix.into(), self.len);
                self.len += 1;
            }
        }
    }

    /// Number of distinct `(depth, suffix)` keys (== bucket slots).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the layout has no keys (empty or all-disabled history).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The dense slot of `(depth, suffix)`, if that key is in the layout.
    pub fn slot_of(&self, depth: u8, suffix: &[FrameId]) -> Option<u32> {
        self.by_depth
            .iter()
            .find(|(d, _)| *d == depth)
            .and_then(|(_, map)| map.get(suffix).copied())
    }

    /// Distinct matching depths present, ascending.
    pub fn depths(&self) -> impl Iterator<Item = u8> + '_ {
        self.by_depth.iter().map(|&(d, _)| d)
    }

    /// The slots `stack` resolves to: one per depth layer whose suffix of
    /// `stack` is a member key, in ascending depth order. Empty means an
    /// `Allowed` entry with these frames can never participate in an exact
    /// cover under this layout (covers look entries up *by member suffix*).
    /// This is the one hashing step of a grant: the slots index the
    /// [`MatchIndex`]'s candidate sets and the engine's buckets alike.
    pub fn slots_of<'a>(&'a self, stack: &'a [FrameId]) -> impl Iterator<Item = u32> + 'a {
        self.by_depth
            .iter()
            .filter_map(move |(d, map)| map.get(suffix_of(stack, *d as usize)).copied())
    }
}

/// A signature member carrying a given suffix.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The signature.
    pub sig: Arc<Signature>,
    /// The matching member's position within `signature.stacks`.
    pub member: usize,
    /// The signature's shared cover keys (slots resolved).
    pub keys: Arc<CoverKeys>,
}

/// All candidates sharing one `(depth, suffix)` key, with the emptiness
/// precheck's inputs laid out flat: a hot suffix can carry dozens of
/// candidates, the precheck runs for every one on every request hitting
/// the suffix, and in the common all-refuted case the scan must not chase
/// a single per-candidate `Arc` — just contiguous slot indices plus one
/// bucket-length load each.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    candidates: Vec<Candidate>,
    /// Concatenation of every candidate's *other-member* bucket slots.
    others_flat: Vec<u32>,
    /// `candidates.len() + 1` offsets into `others_flat` (candidate `i`
    /// owns `others_flat[spans[i]..spans[i + 1]]`).
    spans: Vec<u32>,
    /// Whether some candidate has *no* other members (a single-member
    /// signature): it is instantiated by the anchor request alone, so no
    /// emptiness argument can ever refute the set wholesale.
    lone_member: bool,
}

impl CandidateSet {
    fn new() -> Self {
        Self {
            candidates: Vec::new(),
            others_flat: Vec::new(),
            spans: vec![0],
            lone_member: false,
        }
    }

    fn push(&mut self, candidate: Candidate, other_slots: impl Iterator<Item = u32>) {
        let start = self.others_flat.len();
        self.others_flat.extend(other_slots);
        self.lone_member |= self.others_flat.len() == start;
        self.spans.push(self.others_flat.len() as u32);
        self.candidates.push(candidate);
    }

    /// The candidates, in history-snapshot × member order.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Candidate `i`'s other-member bucket slots (the emptiness precheck
    /// inputs).
    pub fn other_slots(&self, i: usize) -> &[u32] {
        &self.others_flat[self.spans[i] as usize..self.spans[i + 1] as usize]
    }

    /// Every candidate's other-member slots, concatenated. Every candidate
    /// contributes at least one slot (signatures have ≥ 2 members), so if
    /// *all* of these buckets are provably empty, every candidate in the
    /// set is refuted at once — the whole-set fast reject.
    pub fn all_other_slots(&self) -> &[u32] {
        &self.others_flat
    }

    /// Whether some candidate is a single-member signature (see the
    /// `lone_member` field): if so, *no* whole-set emptiness reject is
    /// valid — the anchor request instantiates such a candidate by
    /// itself.
    pub fn has_lone_member(&self) -> bool {
        self.lone_member
    }
}

/// Immutable index over one history generation: the [`CandidateSet`] of
/// every [`BucketLayout`] slot.
///
/// Rebuild whenever [`History::generation`] moves — membership or
/// matching-depth changes both bump it. For pure appends,
/// [`MatchIndex::extended`] patches a copy instead of rebuilding: sets the
/// appended signatures do not touch are `Arc`-shared with the base index,
/// and existing candidates keep their (slot-stable, see [`BucketLayout`])
/// precomputed [`CoverKeys`].
#[derive(Debug)]
pub struct MatchIndex {
    /// Generation of the history this index was built from.
    generation: u64,
    /// How many signatures of that generation's list it covers, disabled
    /// ones included: where [`History::appended_since`] resumes.
    signatures: usize,
    /// One set per layout slot, indexed by it. Candidate order within a set
    /// follows history-snapshot order — the cover search (and hence yield
    /// causes) must be deterministic.
    sets: Vec<Arc<CandidateSet>>,
    /// Dense bucket-slot directory for this generation: the `(depth,
    /// suffix) → slot` map in front of `sets`, and what every candidate's
    /// [`CoverKeys`] members resolved their slots against.
    layout: Arc<BucketLayout>,
}

impl MatchIndex {
    /// Builds an index over the current contents of `history`.
    pub fn build(history: &History, stacks: &StackTable) -> Self {
        // ONE consistent (generation, snapshot) read for the stamp, the
        // layout and the candidate sets. The stamp must not be older than
        // the contents: a later `extended` over the delta since the stamp
        // would push the newer signatures' candidates a second time (the
        // layout dedups keys, the candidate sets do not). And the layout
        // and the candidates must not come from *different* snapshots: a
        // candidate whose member key the layout missed has no slot to
        // resolve against (this was an observed panic under concurrent
        // vaccination).
        let (generation, snapshot) = history.snapshot_with_generation();
        let layout = Arc::new(BucketLayout::build_from(&snapshot, stacks));
        Self::with_signatures(generation, 0, Vec::new(), layout, &snapshot, stacks)
    }

    /// Extends `base` with candidates for `new_sigs` (appended to the
    /// history after `base` was built) under `layout` (itself extended from
    /// `base.layout()`), producing the index `generation` describes. Because
    /// appends land at the snapshot's tail and slots are append-stable, the
    /// result is identical to a fresh [`MatchIndex::build`] at that
    /// generation — at the cost of one `Arc` clone per surviving set and a
    /// copy of each set that gains a candidate.
    pub fn extended(
        base: &Self,
        generation: u64,
        layout: Arc<BucketLayout>,
        new_sigs: &[Arc<Signature>],
        stacks: &StackTable,
    ) -> Self {
        let (sets, covered) = (base.sets.clone(), base.signatures);
        Self::with_signatures(generation, covered, sets, layout, new_sigs, stacks)
    }

    /// `sets` (covering the first `covered` signatures) grown to one per
    /// `layout` slot, with `sigs`' members appended.
    fn with_signatures(
        generation: u64,
        covered: usize,
        mut sets: Vec<Arc<CandidateSet>>,
        layout: Arc<BucketLayout>,
        sigs: &[Arc<Signature>],
        stacks: &StackTable,
    ) -> Self {
        sets.resize_with(layout.len(), || Arc::new(CandidateSet::new()));
        let mut index = Self {
            generation,
            signatures: covered + sigs.len(),
            sets,
            layout,
        };
        for sig in sigs {
            index.add_signature(sig, stacks);
        }
        index
    }

    /// Appends `sig`'s members to the candidate sets of their slots.
    fn add_signature(&mut self, sig: &Arc<Signature>, stacks: &StackTable) {
        if sig.is_disabled() {
            return;
        }
        let mut keys = CoverKeys::compute(sig, sig.depth(), stacks);
        keys.resolve(&self.layout);
        let keys = Arc::new(keys);
        for (member, key) in keys.members.iter().enumerate() {
            let others = keys
                .members
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != member)
                .map(|(_, mk)| mk.slot.expect("key resolved against own layout"));
            let self_slot = key.slot.expect("key resolved against own layout");
            Arc::make_mut(&mut self.sets[self_slot as usize]).push(
                Candidate {
                    sig: Arc::clone(sig),
                    member,
                    keys: Arc::clone(&keys),
                },
                others,
            );
        }
    }

    /// Generation of the history this index reflects.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// How many signatures of its generation's list this index covers.
    pub fn signatures(&self) -> usize {
        self.signatures
    }

    /// The dense bucket-slot directory this index's cover keys resolve
    /// against.
    pub fn layout(&self) -> &Arc<BucketLayout> {
        &self.layout
    }

    /// The candidates of layout slot `slot` — for a caller that already
    /// resolved its stack with [`BucketLayout::slots_of`].
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a slot of [`MatchIndex::layout`].
    pub fn set_at(&self, slot: u32) -> &CandidateSet {
        &self.sets[slot as usize]
    }

    /// All [`Candidate`]s whose member stack matches `stack` at the
    /// signature's indexed depth. Allocation-free: the probe suffix is
    /// borrowed for the slot look-up.
    pub fn candidates<'a>(&'a self, stack: &'a [FrameId]) -> impl Iterator<Item = &'a Candidate> {
        self.candidate_sets(stack)
            .flat_map(|set| set.candidates().iter())
    }

    /// The per-`(depth, suffix)` [`CandidateSet`]s matching `stack` — at
    /// most one per depth layer, ascending by depth.
    pub fn candidate_sets<'a>(
        &'a self,
        stack: &'a [FrameId],
    ) -> impl Iterator<Item = &'a CandidateSet> {
        self.layout.slots_of(stack).map(|slot| self.set_at(slot))
    }

    /// Whether any signature member matches `stack` at its indexed depth.
    pub fn matches_any(&self, stack: &[FrameId]) -> bool {
        self.layout.slots_of(stack).next().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameTable;
    use crate::signature::CycleKind;
    use crate::stack::StackId;

    struct Env {
        frames: FrameTable,
        stacks: StackTable,
        history: History,
    }

    impl Env {
        fn new() -> Self {
            Self {
                frames: FrameTable::new(),
                stacks: StackTable::new(),
                history: History::new(),
            }
        }

        fn stack(&self, lines: &[u32]) -> StackId {
            let f: Vec<_> = lines
                .iter()
                .map(|&l| self.frames.intern("f", "x.rs", l))
                .collect();
            self.stacks.intern(&f)
        }

        fn frames_of(&self, lines: &[u32]) -> Vec<FrameId> {
            lines
                .iter()
                .map(|&l| self.frames.intern("f", "x.rs", l))
                .collect()
        }
    }

    #[test]
    fn finds_members_matching_at_depth() {
        let env = Env::new();
        let s1 = env.stack(&[1, 5, 6]);
        let s2 = env.stack(&[2, 5, 7]);
        let sig = env
            .history
            .add(CycleKind::Deadlock, vec![s1, s2], 2)
            .unwrap();
        let idx = MatchIndex::build(&env.history, &env.stacks);

        // A fresh stack sharing s1's depth-2 suffix [5, 6].
        let probe = env.frames_of(&[9, 9, 5, 6]);
        let hits: Vec<_> = idx.candidates(&probe).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].sig.id, sig.id);
        assert!(idx.matches_any(&probe));
        // The matched member is the one holding the [_, 5, 6] stack.
        let member_stack = env.stacks.resolve(sig.stacks[hits[0].member]);
        assert_eq!(suffix_of(&member_stack, 2), &env.frames_of(&[5, 6])[..]);

        // A stack with no matching suffix yields nothing.
        let miss = env.frames_of(&[5, 9]);
        assert_eq!(idx.candidates(&miss).count(), 0);
        assert!(!idx.matches_any(&miss));
    }

    #[test]
    fn cover_keys_align_with_members() {
        let env = Env::new();
        let s1 = env.stack(&[1, 5, 6]);
        let s2 = env.stack(&[2, 5, 7]);
        env.history
            .add(CycleKind::Deadlock, vec![s1, s2], 2)
            .unwrap();
        let idx = MatchIndex::build(&env.history, &env.stacks);
        let probe = env.frames_of(&[9, 9, 5, 6]);
        let c = idx.candidates(&probe).next().unwrap();
        let (member, keys) = (c.member, &c.keys);
        assert_eq!(keys.depth, 2);
        assert_eq!(keys.members.len(), 2);
        assert_eq!(keys.members[0].stack, s1);
        assert_eq!(keys.members[1].stack, s2);
        assert_eq!(&*keys.members[member].suffix, &env.frames_of(&[5, 6])[..]);
        let layout = idx.layout();
        for key in &keys.members {
            assert_eq!(key.slot, layout.slot_of(2, &key.suffix));
            assert!(key.slot.is_some());
        }
    }

    #[test]
    fn layout_assigns_dense_deduplicated_slots() {
        let env = Env::new();
        let s1 = env.stack(&[1, 5, 6]);
        let s2 = env.stack(&[2, 5, 7]);
        let s3 = env.stack(&[9, 5, 6]); // depth-2 suffix [5, 6] — same key as s1
        env.history
            .add(CycleKind::Deadlock, vec![s1, s2], 2)
            .unwrap();
        env.history
            .add(CycleKind::Deadlock, vec![s3, s2], 2)
            .unwrap();
        let layout = BucketLayout::build(&env.history, &env.stacks);
        // Keys: [5,6] and [5,7] at depth 2 — s3's suffix collapses into
        // s1's slot.
        assert_eq!(layout.len(), 2);
        let k56 = layout.slot_of(2, &env.frames_of(&[5, 6])).unwrap();
        let k57 = layout.slot_of(2, &env.frames_of(&[5, 7])).unwrap();
        assert_ne!(k56, k57);
        assert!((k56 as usize) < layout.len() && (k57 as usize) < layout.len());
        assert_eq!(layout.slot_of(2, &env.frames_of(&[5, 9])), None);
        assert_eq!(layout.slot_of(3, &env.frames_of(&[5, 6])), None);
        assert_eq!(layout.depths().collect::<Vec<_>>(), vec![2]);
        let resolved: Vec<u32> = layout.slots_of(&env.frames_of(&[8, 8, 5, 6])).collect();
        assert_eq!(resolved, vec![k56]);
        assert_eq!(layout.slots_of(&env.frames_of(&[8, 8, 6, 5])).count(), 0);
    }

    #[test]
    fn disabled_signatures_are_invisible() {
        let env = Env::new();
        let s = env.stack(&[1, 2]);
        let sig = env.history.add(CycleKind::Deadlock, vec![s, s], 2).unwrap();
        sig.set_disabled(true);
        env.history.touch();
        let idx = MatchIndex::build(&env.history, &env.stacks);
        assert_eq!(idx.candidates(&env.frames_of(&[1, 2])).count(), 0);
    }

    #[test]
    fn mixed_depths_are_all_queried() {
        let env = Env::new();
        let shallow = env
            .history
            .add(
                CycleKind::Deadlock,
                vec![env.stack(&[1, 6]), env.stack(&[2, 6])],
                1,
            )
            .unwrap();
        let deep = env
            .history
            .add(
                CycleKind::Deadlock,
                vec![env.stack(&[1, 2, 3, 6]), env.stack(&[4, 5, 6, 6])],
                4,
            )
            .unwrap();
        let idx = MatchIndex::build(&env.history, &env.stacks);
        assert_eq!(idx.layout().depths().collect::<Vec<_>>(), vec![1, 4]);

        // Anything ending in 6 matches `shallow` at depth 1; only the exact
        // 4-suffix matches `deep`.
        let probe = env.frames_of(&[9, 1, 2, 3, 6]);
        let mut sig_ids: Vec<_> = idx.candidates(&probe).map(|c| c.sig.id).collect();
        sig_ids.sort_unstable();
        sig_ids.dedup();
        assert!(sig_ids.contains(&shallow.id));
        assert!(sig_ids.contains(&deep.id));

        let probe2 = env.frames_of(&[9, 9, 9, 6]);
        let ids2: Vec<_> = idx.candidates(&probe2).map(|c| c.sig.id).collect();
        assert!(ids2.contains(&shallow.id));
        assert!(!ids2.contains(&deep.id));
    }

    #[test]
    fn extended_layout_and_index_match_full_build() {
        let env = Env::new();
        // Base: two signatures at depths 2 and 1.
        let s1 = env.stack(&[1, 5, 6]);
        let s2 = env.stack(&[2, 5, 7]);
        env.history
            .add(CycleKind::Deadlock, vec![s1, s2], 2)
            .unwrap();
        env.history
            .add(
                CycleKind::Deadlock,
                vec![env.stack(&[3, 8]), env.stack(&[4, 9])],
                1,
            )
            .unwrap();
        let base_layout = BucketLayout::build(&env.history, &env.stacks);
        let base_index = MatchIndex::build(&env.history, &env.stacks);

        // Appends: one sharing suffix [5, 6] with the base, one at a brand
        // new depth, one disabled (must stay invisible).
        let n1 = env
            .history
            .add(
                CycleKind::Deadlock,
                vec![env.stack(&[9, 5, 6]), env.stack(&[9, 5, 8])],
                2,
            )
            .unwrap();
        let n2 = env
            .history
            .add(
                CycleKind::Deadlock,
                vec![env.stack(&[1, 2, 3]), env.stack(&[4, 5, 6])],
                3,
            )
            .unwrap();
        let n3 = env
            .history
            .add(
                CycleKind::Deadlock,
                vec![env.stack(&[7, 7]), env.stack(&[8, 8])],
                2,
            )
            .unwrap();
        n3.set_disabled(true);
        let new_sigs = vec![n1, n2, n3];

        let ext_layout = Arc::new(BucketLayout::extended(&base_layout, &new_sigs, &env.stacks));
        let full_layout = BucketLayout::build(&env.history, &env.stacks);
        assert_eq!(ext_layout.len(), full_layout.len());
        assert_eq!(
            ext_layout.depths().collect::<Vec<_>>(),
            full_layout.depths().collect::<Vec<_>>()
        );
        for (d, map) in &full_layout.by_depth {
            for (suffix, slot) in map.iter() {
                assert_eq!(ext_layout.slot_of(*d, suffix), Some(*slot));
            }
        }
        // Every pre-existing slot survived verbatim (append stability).
        for (d, map) in &base_layout.by_depth {
            for (suffix, slot) in map.iter() {
                assert_eq!(ext_layout.slot_of(*d, suffix), Some(*slot));
            }
        }

        let gen = env.history.generation();
        let ext = MatchIndex::extended(
            &base_index,
            gen,
            Arc::clone(&ext_layout),
            &new_sigs,
            &env.stacks,
        );
        let full = MatchIndex::build(&env.history, &env.stacks);
        assert_eq!(ext.generation(), full.generation());
        assert_eq!(full.sets.len(), full_layout.len());
        assert_eq!(ext.sets.len(), full.sets.len());
        for (set, eset) in full.sets.iter().zip(&ext.sets) {
            assert_eq!(set.has_lone_member(), eset.has_lone_member());
            assert_eq!(set.all_other_slots(), eset.all_other_slots());
            assert_eq!(set.candidates().len(), eset.candidates().len());
            for (c, e) in set.candidates().iter().zip(eset.candidates()) {
                assert_eq!(c.sig.id, e.sig.id);
                assert_eq!(c.member, e.member);
                let cs: Vec<_> = c.keys.members.iter().map(|m| m.slot).collect();
                let es: Vec<_> = e.keys.members.iter().map(|m| m.slot).collect();
                assert_eq!(cs, es);
            }
        }
        // Only the set that gained a candidate ([5, 6] at depth 2, shared
        // with `n1`) was copied; every other surviving set is shared.
        let touched = base_layout.slot_of(2, &env.frames_of(&[5, 6])).unwrap();
        for (slot, (b, e)) in base_index.sets.iter().zip(&ext.sets).enumerate() {
            assert_eq!(Arc::ptr_eq(b, e), slot != touched as usize, "slot {slot}");
        }
        // Look-ups go through the one map, depth ascending, and every set
        // is filed under its candidates' own member key.
        let probe = env.frames_of(&[0, 9, 5, 6]);
        let via_layout: Vec<u32> = ext_layout.slots_of(&probe).collect();
        assert_eq!(via_layout.len(), ext.candidate_sets(&probe).count());
        for (&slot, set) in via_layout.iter().zip(ext.candidate_sets(&probe)) {
            assert!(!set.candidates().is_empty());
            for c in set.candidates() {
                assert_eq!(c.keys.members[c.member].slot, Some(slot));
            }
        }
    }

    /// The engine's rebuild, step by step, with an `add` landing between
    /// its generation read and its tail read. The tail and the stamp come
    /// from one read: an extension stamped with the older generation would
    /// get the racing signature again from the next extension, and the
    /// candidate sets — unlike the layout's keys — do not dedup.
    #[test]
    fn an_append_racing_a_rebuild_is_applied_once() {
        let env = Env::new();
        let base = MatchIndex::build(&env.history, &env.stacks);
        let add = |a: &[u32], b: &[u32]| {
            env.history
                .add(CycleKind::Deadlock, vec![env.stack(a), env.stack(b)], 2)
                .unwrap()
        };
        let extend = |from: &MatchIndex| {
            let (to, sigs) = env
                .history
                .appended_since(from.generation(), from.signatures())
                .expect("pure appends reported structural");
            let layout = Arc::new(BucketLayout::extended(from.layout(), &sigs, &env.stacks));
            MatchIndex::extended(from, to, layout, &sigs, &env.stacks)
        };
        add(&[1, 5, 6], &[2, 5, 7]);
        let stamp = env.history.generation(); // the rebuild reads its stamp ...
        add(&[3, 8, 9], &[4, 8, 10]); // ... and an `add` lands before its tail
        let first = extend(&base);
        let racing = env.frames_of(&[3, 8, 9]);
        assert!(first.generation() > stamp, "stamped with what it read");
        assert_eq!(first.candidates(&racing).count(), 1, "in the first tail");
        let second = extend(&first);
        assert_eq!(second.generation(), first.generation());
        assert_eq!(
            second.candidates(&racing).count(),
            1,
            "not again from the second"
        );
        assert_eq!(second.candidates(&env.frames_of(&[1, 5, 6])).count(), 1);
        assert_eq!(second.layout().len(), 4);
        assert_eq!(second.signatures(), 2);
    }

    #[test]
    fn same_stack_twice_in_one_signature_yields_two_members() {
        let env = Env::new();
        let s = env.stack(&[3, 4]);
        env.history.add(CycleKind::Deadlock, vec![s, s], 2).unwrap();
        let idx = MatchIndex::build(&env.history, &env.stacks);
        let probe = env.frames_of(&[3, 4]);
        assert_eq!(idx.candidates(&probe).count(), 2);
    }
}
