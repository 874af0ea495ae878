#!/usr/bin/env bash
# Counts non-test, non-comment, non-blank Rust lines: the "Lines" figure
# ROADMAP.md quotes. A file declared as `#[cfg(test)] mod x;` (its
# `x.rs` or `x/` tree) is test code and is skipped whole. In every other
# `.rs` file under the given paths, a line starting with `#[cfg(test)]`
# skips the one item it marks: from the attribute to the `;` that ends a
# one-line item (`mod x;`, `use ..;`), or to the brace that closes a
# braced one (`mod tests { .. }`, `fn f() { .. }`). Braces
# in string and char literals and in comments do not count. Of the lines
# left, blank lines and lines whose first non-space characters are `//`
# are skipped. Prints one total.
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
        # Scans one line of a test item, carrying literal and comment
        # state across lines. Returns 0 while the item goes on, 1 when
        # it ends on this line, 2 when this line closes the enclosing
        # item instead (the attribute marked a field or an expression):
        # that line counts.
        function scan(line,    len, i, c, two, j) {
            len = length(line)
            i = 1
            while (i <= len) {
                c = substr(line, i, 1)
                two = substr(line, i, 2)
                if (block > 0) {
                    if (two == "*/") { block--; i += 2 }
                    else if (two == "/*") { block++; i += 2 }
                    else i++
                    continue
                }
                if (quote) {
                    # `closer` holds the `#`s of a raw string; only a
                    # plain string has escapes.
                    if (!raw && c == "\\") i += 2
                    else if (c == "\"" && substr(line, i + 1, length(closer)) == closer) {
                        quote = 0
                        i += 1 + length(closer)
                    } else i++
                    continue
                }
                if (two == "//") return 0
                if (two == "/*") { block = 1; i += 2; continue }
                if (c == "\"") { quote = 1; raw = 0; closer = ""; i++; continue }
                if (c == "r" && match(substr(line, i), /^r#*"/)) {
                    quote = 1
                    raw = 1
                    closer = substr(line, i + 1, RLENGTH - 2)
                    i += RLENGTH
                    continue
                }
                if (c == "\047") {
                    # A char literal, escaped or not; otherwise a lifetime.
                    if (substr(line, i + 1, 1) == "\\") {
                        j = index(substr(line, i + 3), "\047")
                        i += j ? 3 + j : 2
                    } else if (substr(line, i + 2, 1) == "\047") i += 3
                    else i++
                    continue
                }
                if (c == "{") depth++
                else if (c == "}") {
                    depth--
                    if (depth == 0) return 1
                    if (depth < 0) return 2
                } else if (c == "(" || c == "[") nest++
                else if (c == ")" || c == "]") nest--
                else if (c == ";" && depth == 0 && nest == 0) return 1
                i++
            }
            return 0
        }
        FNR == 1 {
            in_file_tests = 0
            for (i = 1; i <= n; i++) {
                p = paths[i]
                if (FILENAME == p || (p ~ /\/$/ && index(FILENAME, p) == 1)) in_file_tests = 1
            }
            in_item = 0
        }
        in_file_tests { next }
        !in_item && /^[[:space:]]*#\[cfg\(test\)\]/ {
            in_item = 1
            depth = nest = block = quote = 0
            line = $0
            sub(/^[[:space:]]*#\[cfg\(test\)\]/, "", line)
            if (scan(line)) in_item = 0
            next
        }
        in_item {
            ended = scan($0)
            if (ended) in_item = 0
            if (ended != 2) next
        }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { total++ }
        END { print total + 0 }
    ' |
    awk '{ sum += $1 } END { print sum + 0 }'
