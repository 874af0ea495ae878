#!/usr/bin/env bash
# Counts non-test, non-comment, non-blank Rust lines: the "Lines" figure
# ROADMAP.md quotes. In each `.rs` file under the given paths, only the
# lines before the file's first `#[cfg(test)]` count, and of those, blank
# lines and lines whose first non-space characters are `//` are skipped.
# Prints one total.
#
# Usage: tools/count_lines.sh PATH [PATH ...]
#   e.g. tools/count_lines.sh crates/*/src
set -euo pipefail

if [ "$#" -eq 0 ]; then
    echo "usage: $0 PATH [PATH ...]" >&2
    exit 2
fi

# `-exec ... +` may split a long file list over several awk runs, so each
# run prints a subtotal and the last awk adds them up.
find "$@" -name '*.rs' -type f -exec awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { total++ }
        END { print total + 0 }
    ' {} + |
    awk '{ sum += $1 } END { print sum + 0 }'
