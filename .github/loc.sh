#!/bin/sh
# Line counts per crate, by one rule. Every `.rs` file outside `compat/`,
# `target/` and any `tests/` or `benches/` directory counts as code up to
# its test module (the `mod tests` item, with a `#[cfg(test)]` line right
# above it), and as test code from there on; a file named `tests.rs` is
# test code throughout. A line is a raw line: docs, comments and blank
# lines count. `crates/<name>` is crate <name>, `examples/` is `examples`,
# and the root package's `src/` is `facade`. A report: it compares
# nothing and exits 0 unless it cannot read the tree.
#
# Usage: sh .github/loc.sh [workspace root]    (default: .)
set -eu
cd "${1:-.}"
find . \( -path ./compat -o -path ./target -o -name tests -o -name benches \
    -o -name '.?*' \) -prune -o -name '*.rs' -type f -print |
    sort |
    xargs awk '
        FNR == 1 {
            crate = FILENAME
            sub(/^\.\//, "", crate)
            if (crate ~ /^crates\//) {
                split(crate, part, "/")
                crate = part[2]
            } else if (crate ~ /^examples\//) {
                crate = "examples"
            } else {
                crate = "facade"
            }
            seen[crate] = 1
            in_tests = (FILENAME ~ /(^|\/)tests\.rs$/)
            after_cfg_test = 0
        }
        {
            if (!in_tests && $0 ~ /^[ \t]*(pub(\([a-z]+\))? )?mod tests[ \t]*[;{]/) {
                in_tests = 1
                if (after_cfg_test) {
                    code[crate]--
                    test[crate]++
                }
            }
            if (in_tests) test[crate]++; else code[crate]++
            after_cfg_test = ($0 ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/)
        }
        END {
            for (c in seen) {
                printf "0 %-12s %7d %7d\n", c, code[c], test[c]
                total_code += code[c]
                total_test += test[c]
            }
            printf "1 %-12s %7d %7d\n", "total", total_code, total_test
        }
    ' |
    sort -k1,1n -k3,3nr -k2,2 |
    { printf "%-12s %7s %7s\n" crate code test; cut -c3-; }
