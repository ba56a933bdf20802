//! Property and stress tests for the lock-free substrate.

use dimmunix_lockfree::{DrainVerdict, MpscQueue, VersionedBucket, WakeList};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

proptest! {
    /// Single-threaded push/pop interleavings behave exactly like VecDeque.
    #[test]
    fn mpsc_matches_fifo_model(ops in prop::collection::vec(any::<Option<u16>>(), 0..200)) {
        let q = MpscQueue::new();
        let mut model = VecDeque::new();
        for op in ops {
            match op {
                Some(v) => {
                    q.push(v);
                    model.push_back(v);
                }
                None => {
                    prop_assert_eq!(q.pop(), model.pop_front());
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
        // Drain the remainder in order.
        while let Some(expect) = model.pop_front() {
            prop_assert_eq!(q.pop(), Some(expect));
        }
        prop_assert_eq!(q.pop(), None);
    }
}

/// Cross-thread stress: producers + the consumer agree on the exact
/// multiset of messages (no loss, no duplication, per-producer order).
#[test]
fn mpsc_stress_no_loss_no_dup() {
    const PRODUCERS: u64 = 6;
    const PER: u64 = 20_000;
    let q = Arc::new(MpscQueue::new());
    let handles: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..PER {
                    q.push(p * PER + i);
                }
            })
        })
        .collect();
    let mut seen = vec![0_u64; (PRODUCERS * PER) as usize];
    let mut last = vec![-1_i64; PRODUCERS as usize];
    let mut count = 0;
    while count < PRODUCERS * PER {
        if let Some(v) = q.pop() {
            seen[v as usize] += 1;
            let p = (v / PER) as usize;
            let i = (v % PER) as i64;
            assert!(i > last[p], "per-producer order violated");
            last[p] = i;
            count += 1;
        } else {
            std::hint::spin_loop();
        }
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(seen.iter().all(|&c| c == 1), "loss or duplication detected");
}

proptest! {
    /// `VersionedBucket` mutations follow `Vec` push / `swap_remove` order
    /// exactly in sequential execution — the property the avoidance
    /// engine's lockstep determinism rests on.
    #[test]
    fn versioned_bucket_matches_vec_model(
        ops in prop::collection::vec((any::<bool>(), 0_u64..12), 0..120),
    ) {
        let bucket: VersionedBucket<2> = VersionedBucket::new();
        let mut model: Vec<[u64; 2]> = Vec::new();
        let mut out = Vec::new();
        for (push, v) in ops {
            let rec = [v, v ^ 0xA5A5];
            if push {
                bucket.write().push(rec);
                model.push(rec);
            } else {
                let removed = bucket.write().remove(rec);
                match model.iter().position(|r| *r == rec) {
                    Some(pos) => {
                        prop_assert!(removed);
                        model.swap_remove(pos);
                    }
                    None => prop_assert!(!removed),
                }
            }
            let s = bucket.read_into(&mut out);
            prop_assert_eq!(&out, &model, "live prefix must match Vec order");
            prop_assert_eq!(bucket.seq(), s, "sequence stable while idle");
        }
    }

    /// `WakeList` push/drain with retain semantics matches a multiset
    /// model: every pushed node is delivered to exactly one drain verdict,
    /// and retained nodes survive to the next drain.
    #[test]
    fn wake_list_matches_multiset_model(
        // key 0..4 pushes (key, payload); key 4 means "drain key 0".
        ops in prop::collection::vec(
            (0_u64..5, 0_u64..16).prop_map(|(k, p)| (k < 4).then_some((k, p))),
            0..80,
        ),
    ) {
        let list = WakeList::new();
        let mut model: Vec<(u64, u64)> = Vec::new();
        for op in ops {
            match op {
                Some((key, payload)) => {
                    list.push(key, payload, 9);
                    model.push((key, payload));
                }
                None => {
                    let mut delivered = Vec::new();
                    let mut bad_tag = false;
                    list.drain(|key, payload, tag| {
                        bad_tag |= tag != 9;
                        if key == 0 {
                            delivered.push(payload);
                            DrainVerdict::Consume
                        } else {
                            DrainVerdict::Retain
                        }
                    });
                    prop_assert!(!bad_tag, "tag corrupted in transit");
                    let mut expect: Vec<u64> = model
                        .iter()
                        .filter(|&&(k, _)| k == 0)
                        .map(|&(_, p)| p)
                        .collect();
                    model.retain(|&(k, _)| k != 0);
                    delivered.sort_unstable();
                    expect.sort_unstable();
                    prop_assert_eq!(delivered, expect);
                }
            }
        }
    }
}

/// Loom-style interleaving sweep over the decide-then-register /
/// remove-then-drain race, in the seeded-exploration spirit of the
/// threadsim harness: every interleaving of the two critical op sequences
/// is enumerated (ops are atomic at this granularity — each op is one
/// linearizable call on the primitives), and the combined invariant is
/// checked on each:
///
/// * requester R: read bucket (sees the entry) → push wake registration →
///   re-validate the bucket sequence;
/// * releaser T: remove the entry from the bucket → swap-and-drain the
///   wake list.
///
/// The no-lost-wakeup invariant: if R's validation passes (it will park),
/// then T's drain must have delivered R's registration. Otherwise R must
/// observe churn and retry (not park).
#[test]
fn interleavings_never_lose_a_wakeup() {
    // Choose which of the 5 steps (3 from R, 2 from T) run in which order:
    // enumerate all C(5,2) = 10 placements of T's steps.
    for t_first in 0..5_usize {
        for t_second in (t_first + 1)..5 {
            let bucket: VersionedBucket<1> = VersionedBucket::new();
            bucket.write().push([42]); // the cover entry R reads
            let list = WakeList::new();

            let mut r_step = 0;
            let mut snapshot_seq = 0_u64;
            let mut saw_entry = false;
            let mut validated = false;
            let mut woken = false;
            let mut scratch = Vec::new();

            let mut run_r = |bucket: &VersionedBucket<1>, list: &WakeList| {
                match r_step {
                    0 => {
                        snapshot_seq = bucket.read_into(&mut scratch);
                        saw_entry = scratch.contains(&[42]);
                    }
                    1 => list.push(7, 100, 1),
                    2 => validated = bucket.seq() == snapshot_seq,
                    _ => unreachable!(),
                }
                r_step += 1;
            };
            let mut t_step = 0;
            let mut run_t = |bucket: &VersionedBucket<1>, list: &WakeList| {
                match t_step {
                    0 => {
                        bucket.write().remove([42]);
                    }
                    1 => {
                        list.drain(|key, payload, _| {
                            assert_eq!((key, payload), (7, 100));
                            woken = true;
                            DrainVerdict::Consume
                        });
                    }
                    _ => unreachable!(),
                }
                t_step += 1;
            };

            for step in 0..5 {
                if step == t_first || step == t_second {
                    run_t(&bucket, &list);
                } else {
                    run_r(&bucket, &list);
                }
            }
            assert!(
                saw_entry || t_first == 0,
                "entry only missing if removed first"
            );
            // The invariant: R parking (validation passed after seeing the
            // entry) requires the wake to have been delivered or still
            // deliverable (registration present for T's *next* drain —
            // impossible here since T already drained; so it must be woken).
            if saw_entry && validated {
                assert!(
                    woken || !list.is_empty(),
                    "interleaving t=({t_first},{t_second}): R would park with \
                     the entry removed and no wake delivered"
                );
                // If validation passed, T's removal came after R's re-check,
                // so T's drain (after the removal) must have seen the node.
                if woken {
                    assert!(list.is_empty());
                }
            }
        }
    }
}
