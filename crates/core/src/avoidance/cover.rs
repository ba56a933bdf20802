//! The decision's read side: the one resolution of a stack, the emptiness
//! precheck and the exact-cover search over optimistic bucket snapshots.
//!
//! # Fast-path gating: a grant resolves its stack once
//!
//! `request` resolves the call stack against its log's view exactly once
//! (`lock_current` → [`BucketLayout::slots_of`]): one borrowed look-up per
//! matching depth in use, into the only `(depth, suffix)` map there is. The
//! slots that come back answer everything the hooks ask about that stack
//! under that view:
//!
//! * **none** — the suffix hits no signature-member bucket. A request that
//!   is not yielding appends to its private `Allowed` log and remembers its
//!   grant: zero shared synchronization. This is sound because an `Allowed`
//!   entry whose own suffix matches no signature member can never
//!   participate in an exact cover (covers look entries up *by member
//!   suffix*), so omitting it from the shared buckets cannot change any
//!   decision. On an empty history the layout has no depth layer and
//!   nothing is hashed at all;
//! * **some** — they index the [`MatchIndex`]'s candidate sets (the sets
//!   live in an array by slot, not behind a second map), and they are the
//!   buckets the entry is inserted into on a GO.
//!
//! The held-stack entry keeps the slots. They index its log's own view: a
//! grant resolves them under that view in the critical section that pushes
//! the entry, and a view reaches a log only where every entry in it is
//! resolved again — the chunk install that makes the record, when the log
//! is empty, and the rebuild's visit, which rebuckets each entry and hands
//! over the view in one critical section. So `release`, `cancel` and the
//! exit sweep remove an entry by its remembered slots — no
//! `StackTable::resolve`, no hashing — and resolve again only for an entry
//! that hit more depth layers than it has room to remember
//! (`Resolved::is_complete`), by the computation the visit runs
//! ([`BucketLayout::slots_of`]).
//!
//! A request that hits a member bucket runs the **guard-free cover
//! precheck** first: a signature can only be instantiated if *every* member
//! bucket is non-empty, so one empty bucket among a candidate's other
//! members — one length load — refutes that candidate without reading
//! anything else. Candidates that survive get an **optimistic cover
//! search**: each member bucket is copied with a validated sequence
//! ([`VersionedBucket::read_into`]) and the exact cover is solved over
//! those snapshots; a yield then registers with each cause the cover names
//! (`yields.rs`). In the common case ("in most cases at least one of these
//! sets is empty", §5.4) the whole matching path is a read-only precheck
//! plus one single-bucket CAS-claimed insert of the requester's own entry.

use super::*;

/// One member bucket's validated optimistic snapshot, taken by the cover
/// search: its decoded live entries, in canonical cover order.
struct BucketSnap {
    slot: u32,
    entries: Vec<AllowedEntry>,
}

/// How many bucket slots a resolution holds inline, and so how many a
/// held-stack entry remembers: one per depth layer its stack hits.
/// Signatures of one history rarely use more than a few distinct matching
/// depths (calibration moves each between 1 and its `max_depth`).
pub(super) const REMEMBERED_SLOTS: usize = 4;

/// The bucket slots one call stack resolved to under one view, ascending by
/// depth: what relevance, the candidate sets, the bucket insert and the
/// later removal are all read from. Plain inline data with nothing to drop
/// — every request builds one, and one that could own a heap spill cost an
/// *irrelevant* request ≈ 3 ns — so past [`REMEMBERED_SLOTS`] it only
/// counts, and [`MatchView::all_slots`] looks the rest up again.
#[derive(Clone, Copy, Default)]
pub(super) struct Resolved {
    /// How many slots the stack resolved to, kept or not (saturating).
    pub(super) len: u8,
    /// The first [`REMEMBERED_SLOTS`] of them.
    slots: [u32; REMEMBERED_SLOTS],
}

impl Resolved {
    pub(super) fn push(&mut self, slot: u32) {
        if let Some(room) = self.slots.get_mut(usize::from(self.len)) {
            *room = slot;
        }
        self.len = self.len.saturating_add(1);
    }

    /// Whether every slot the stack resolved to is in here.
    pub(super) fn is_complete(&self) -> bool {
        usize::from(self.len) <= REMEMBERED_SLOTS
    }

    pub(super) fn as_slice(&self) -> &[u32] {
        &self.slots[..usize::from(self.len).min(REMEMBERED_SLOTS)]
    }
}

/// A matched signature instance, ready to be turned into a YIELD.
pub(super) struct Instance {
    pub(super) sig: Arc<Signature>,
    pub(super) depth_used: u8,
    pub(super) causes: Vec<YieldCause>,
    pub(super) bindings: Vec<(StackId, StackId)>,
}

impl AvoidanceCore {
    /// Locks `slot`'s log and resolves `frames` — the grant's one look-up —
    /// into `resolved`, against a view a grant may act on: of the current
    /// history generation and, when `frames` hit a member bucket, fully
    /// swept. Until the log's view is that, drops the lock and rebuilds
    /// (stale, or not visited yet) or waits out the rebuilder (visit still
    /// in flight). The view is borrowed out of the returned log, not
    /// cloned. Inlined into its callers, and the resolution written where
    /// the caller reads it: returned by value it is copied through memory,
    /// padding and all, and re-read in pieces of other widths, which stalls
    /// on store forwarding (≈ 2 ns of an empty-history request, ≈ 8 ns of a
    /// relevant one).
    #[inline(always)]
    pub(super) fn lock_current<'a>(
        &self,
        me: &'a ThreadSlot,
        frames: &[FrameId],
        resolved: &mut Resolved,
    ) -> SlotGuard<'a, AllowedLog> {
        loop {
            let log = me.lock();
            let view = &log.view;
            if view.generation != self.history.generation() {
                drop(log);
                self.refresh_published();
                continue;
            }
            *resolved = Resolved::default();
            view.layout.slots_of(frames).for_each(|s| resolved.push(s));
            if resolved.len != 0 && !view.table.swept.load(Ordering::Acquire) {
                drop(log);
                drop(self.view.lock());
                continue;
            }
            return log;
        }
    }

    /// Searches the history for a signature that the tentative allow edge
    /// `(t, l, stack)` would instantiate (§5.4), over optimistic bucket
    /// snapshots. `slots` is what the requester's frames resolved to under
    /// `view`, ascending by depth — the index is entered by slot, no second
    /// look-up — so candidates are tried in the order [`crate::reference`]
    /// states.
    pub(super) fn find_instance(
        &self,
        view: &MatchView,
        slots: &[u32],
        t: ThreadId,
        l: LockId,
        stack: StackId,
    ) -> Option<Instance> {
        let hot = self.stats.hot(t.0 as usize);
        let occupied = |s: &u32| !view.table.buckets[*s as usize].is_empty();
        let mut scratch: Vec<[u64; 3]> = Vec::new();
        let mut read = |s: u32| {
            view.table.buckets[s as usize].read_into(&mut scratch);
            Self::decode_sorted(&scratch)
        };
        // Batch the per-candidate precheck counter: a hot suffix can carry
        // dozens of candidates.
        let mut skips = 0_u64;
        let mut found = None;
        'sets: for set in slots.iter().map(|&s| view.index.set_at(s)) {
            // Whole-set fast reject: every candidate needs all of its
            // other-member buckets non-empty, and every candidate has at
            // least one, so if none of the set's other-member buckets is
            // occupied — one tight loop over its contiguous slot array —
            // every candidate is refuted at once. The hot suffix of a large
            // history takes this path on almost every request. No emptiness
            // argument applies to a single-member signature — its anchor
            // request instantiates it alone.
            if !set.has_lone_member() && !set.all_other_slots().iter().any(occupied) {
                skips += set.candidates().len() as u64;
                continue;
            }
            for (i, c) in set.candidates().iter().enumerate() {
                // Precheck over the set's flat other-member slots: one
                // bucket-length load per slot, no per-candidate pointer
                // chasing.
                if !set.other_slots(i).iter().all(occupied) {
                    skips += 1;
                    continue;
                }
                // Decided at the depth the view was built at. A depth change
                // rides a generation bump (the monitor sets the depth, then
                // touches the history), and a grant acts only on a view of
                // the current generation (`lock_current`), so a live depth
                // that differs is only seen in that gap, which the engine
                // already tolerates.
                Stats::count(&hot.cover_searches, 1);
                found = Self::try_cover(&mut read, &c.sig, &c.keys, c.member, t, l, stack);
                if found.is_some() {
                    break 'sets;
                }
            }
        }
        if skips > 0 {
            Stats::count(&hot.precheck_skips, skips);
        }
        found
    }

    /// Decodes a raw bucket snapshot into the **canonical cover order**:
    /// sorted by `(thread, lock, stack)`. Bucket *storage* order is not
    /// load-bearing (an extended table keeps surviving buckets' temporal
    /// order while a fresh one is filled in visit order); sorting every
    /// snapshot here — and the reference engine sorting the same way —
    /// keeps decision streams byte-identical either way.
    fn decode_sorted(raw: &[[u64; 3]]) -> Vec<AllowedEntry> {
        let mut entries: Vec<AllowedEntry> =
            raw.iter().copied().map(AllowedEntry::decode).collect();
        entries.sort_unstable_by_key(|e| e.encode());
        entries
    }

    /// Attempts to cover `sig`'s member stacks (anchoring the current thread
    /// at member `anchor`) with distinct `(thread, lock)` entries from the
    /// `Allowed` buckets — the "exact cover" of §3 — at the depth `keys`
    /// were computed at. `read` copies one bucket (slot → canonical
    /// snapshot); each distinct member bucket is read once and the search
    /// runs over those snapshots.
    fn try_cover(
        read: &mut dyn FnMut(u32) -> Vec<AllowedEntry>,
        sig: &Arc<Signature>,
        keys: &CoverKeys,
        anchor: usize,
        t: ThreadId,
        l: LockId,
        stack: StackId,
    ) -> Option<Instance> {
        let (d, keys) = (keys.depth, &keys.members[..]);
        let members: Vec<usize> = (0..keys.len()).filter(|&i| i != anchor).collect();
        let mut snaps: Vec<BucketSnap> = Vec::with_capacity(members.len());
        for &i in &members {
            // A key outside the layout has no bucket: no cover.
            let slot = keys[i].slot?;
            if snaps.iter().any(|s| s.slot == slot) {
                continue; // members with identical keys share one snapshot
            }
            let entries = read(slot);
            if entries.is_empty() {
                return None; // a required member bucket is empty
            }
            snaps.push(BucketSnap { slot, entries });
        }
        let mut chosen: Vec<(ThreadId, LockId, StackId, StackId)> = Vec::new();
        if Self::cover_rec(&snaps, keys, &members, 0, t, l, &mut chosen) {
            let causes = chosen
                .iter()
                .map(|&(ct, cl, cs, _)| YieldCause {
                    thread: ct,
                    lock: cl,
                    stack: cs,
                })
                .collect();
            let mut bindings = vec![(stack, sig.stacks[anchor])];
            bindings.extend(chosen.iter().map(|&(_, _, cs, ms)| (cs, ms)));
            Some(Instance {
                sig: Arc::clone(sig),
                depth_used: d,
                causes,
                bindings,
            })
        } else {
            None
        }
    }

    #[allow(clippy::too_many_arguments)] // Recursive helper over packed search state.
    fn cover_rec(
        snaps: &[BucketSnap],
        keys: &[MemberKey],
        members: &[usize],
        i: usize,
        t: ThreadId,
        l: LockId,
        chosen: &mut Vec<(ThreadId, LockId, StackId, StackId)>,
    ) -> bool {
        if i == members.len() {
            return true;
        }
        let mk = &keys[members[i]];
        let candidates = match mk
            .slot
            .and_then(|slot| snaps.iter().find(|s| s.slot == slot))
        {
            Some(snap) => &snap.entries,
            None => return false,
        };
        for e in candidates {
            let distinct =
                e.t != t && e.l != l && chosen.iter().all(|&(ct, cl, _, _)| ct != e.t && cl != e.l);
            if !distinct {
                continue;
            }
            chosen.push((e.t, e.l, e.stack, mk.stack));
            if Self::cover_rec(snaps, keys, members, i + 1, t, l, chosen) {
                return true;
            }
            chosen.pop();
        }
        false
    }
}
