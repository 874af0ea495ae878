#!/usr/bin/env bash
# Counts non-test, non-comment, non-blank Rust lines: the "Lines" figure
# ROADMAP.md quotes. A file declared as `#[cfg(test)] mod x;` (its
# `x.rs` or `x/` tree) is test code and is skipped whole. In every other
# `.rs` file under the given paths, only the lines before the file's
# first `#[cfg(test)]` count, and of those, blank lines and lines whose
# first non-space characters are `//` are skipped. Prints one total.
#
# Usage: tools/count_lines.sh PATH [PATH ...]
#   e.g. tools/count_lines.sh crates/*/src
set -euo pipefail

if [ "$#" -eq 0 ]; then
    echo "usage: $0 PATH [PATH ...]" >&2
    exit 2
fi

files=$(find "$@" -name '*.rs' -type f)
if [ -z "$files" ]; then
    echo 0
    exit 0
fi

# The paths of the modules declared `#[cfg(test)] mod x;` (the attribute
# on its own line or in front of the declaration), one per line: `x.rs`
# and `x/` beside a `mod.rs`, `lib.rs` or `main.rs`, and under `stem/`
# beside any other `stem.rs`.
test_modules=$(printf '%s\n' "$files" | xargs -d '\n' -r awk '
        function declare(name,    dir, base) {
            dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
            base = FILENAME; sub(/.*\//, "", base)
            if (base !~ /^(mod|lib|main)\.rs$/) {
                sub(/\.rs$/, "", base)
                dir = dir "/" base
            }
            print dir "/" name ".rs"
            print dir "/" name "/"
        }
        FNR == 1 { pending = 0 }
        {
            line = $0
            if (line ~ /^[[:space:]]*#\[cfg\(test\)\]/) {
                pending = 1
                sub(/^[[:space:]]*#\[cfg\(test\)\]/, "", line)
            }
            if (pending && match(line, /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*;/)) {
                name = substr(line, RSTART, RLENGTH)
                sub(/.*mod[[:space:]]+/, "", name)
                sub(/[[:space:]]*;$/, "", name)
                declare(name)
            }
            if (line !~ /^[[:space:]]*$/) pending = 0
        }
    ')

# `xargs` may split a long file list over several awk runs, so each run
# prints a subtotal and the last awk adds them up.
printf '%s\n' "$files" |
    xargs -d '\n' -r awk -v skip="$test_modules" '
        BEGIN { n = split(skip, paths, "\n") }
        FNR == 1 {
            in_tests = 0
            for (i = 1; i <= n; i++) {
                p = paths[i]
                if (FILENAME == p || (p ~ /\/$/ && index(FILENAME, p) == 1)) in_tests = 1
            }
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { total++ }
        END { print total + 0 }
    ' |
    awk '{ sum += $1 } END { print sum + 0 }'
