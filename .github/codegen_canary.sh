#!/bin/sh
# Codegen canary for the avoidance hooks, run on a release binary that
# links the engine (CI uses the benchmark's, built with
# `-p dimmunix_benchmark`). The release profile keeps rustc's 16 codegen
# units and no LTO, so moving code between modules can change what is
# inlined where. This fails if `MatchTable::insert` or `MatchTable::remove`
# has a symbol of its own, i.e. the hooks call them out of line, or if the
# slot lock's uncontended lock or unlock has one (only its cold
# `lock_contended` / `unlock_contended` may), and prints the sizes of the
# hooks, of the context capture (`Context::leaf` finds or grows a lock
# call's leaf), of `Runtime::current_thread` and of the slot lock's slow
# paths for comparison with the parent commit. It also fails when a symbol it looks
# for is missing (a rename, a move or a stripped binary), so it cannot pass
# vacuously.
#
# Usage: sh .github/codegen_canary.sh target/release/dimmunix_benchmark
set -eu
bin=$1
symbols=$(nm -C -S "$bin")

# A check that finds nothing passes nothing: every symbol it reads must
# be there, under the path it greps for.
sizes=$(echo "$symbols" | grep -E ' dimmunix_core::(avoidance::AvoidanceCore::(request|release|acquired)|avoidance::log::<impl dimmunix_core::avoidance::AvoidanceCore>::pop_entry|context::(capture|Context::leaf)|runtime::Runtime::current_thread)$' || true)
if [ "$(echo "$sizes" | grep -c .)" -ne 7 ]; then
    echo "Expected the seven hook, context and registration symbols, found:" >&2
    echo "$sizes" >&2
    exit 1
fi
slow=$(echo "$symbols" | grep -E ' dimmunix_core::avoidance::record::SlotLock<T>::(lock|unlock)_contended$' || true)
if [ "$(echo "$slow" | grep -c .)" -ne 2 ]; then
    echo "Expected the slot lock's two slow paths, found:" >&2
    echo "$slow" >&2
    exit 1
fi
if ! echo "$symbols" | grep -q 'dimmunix_core::avoidance::rebuild::MatchTable\b'; then
    echo "No symbol names dimmunix_core::avoidance::rebuild::MatchTable: moved or renamed? Update this script." >&2
    exit 1
fi

echo "Sizes (bytes):"
printf '%s\n%s\n' "$sizes" "$slow" | while read -r _addr size _kind name; do
    printf '%6d  %s\n' "0x$size" "$name"
done

out_of_line=$(echo "$symbols" | grep -E ' dimmunix_core::avoidance::rebuild::MatchTable::(insert|remove)$' || true)
if [ -n "$out_of_line" ]; then
    echo "MatchTable::insert / remove are out of line (they need #[inline]):" >&2
    echo "$out_of_line" >&2
    exit 1
fi
echo "MatchTable::insert / remove are inlined."

# The fast paths: `SlotLock::lock`, `ThreadSlot::lock`, and the guard's drop
# (its `Drop::drop` or the `drop_in_place` glue around it).
fast=$(echo "$symbols" | grep -E ' (dimmunix_core::avoidance::record::(SlotLock<T>|ThreadSlot)::lock|<dimmunix_core::avoidance::record::SlotGuard<T> as core::ops::drop::Drop>::drop|core::ptr::drop_in_place<dimmunix_core::avoidance::record::SlotGuard<.*>>)$' || true)
if [ -n "$fast" ]; then
    echo "The slot lock's uncontended lock or unlock is out of line (it needs #[inline]):" >&2
    echo "$fast" >&2
    exit 1
fi
echo "The slot lock's uncontended lock and unlock are inlined."
