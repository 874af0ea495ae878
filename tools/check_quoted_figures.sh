#!/usr/bin/env bash
# Checks that every hardware number EXPERIMENTS.md quotes for Figs.
# 14a-c, 15, 17 and the power table appears in a pinned figure table
# (`crates/bench/expected/*.txt`, compared byte for byte by
# `crates/bench/tests/pins.rs`).
#
# Only the `*Reproduction*` paragraph of those six sections is read. A
# number there is a quote when it has a decimal point, or when a unit
# (Mt/s, MHz, mW, µs, cycles, %) follows it, directly or after a chain
# such as `4101 → 531 cycles`; `131 k cycles` quotes 131 000. Skipped:
# a number right after a letter, `_` or `^` (`V5`, `fig14a`, `2^13`), and
# a tolerance (`within 2 %`). A quote is pinned when some number in a
# pin rounds to it at the quote's precision: `3.17` for `3.1669`,
# `321` for `321.5`. Exits 1 listing every quote no pin holds.
#
# Usage: tools/check_quoted_figures.sh [EXPERIMENTS.md [PIN_DIR]]
set -euo pipefail
cd "$(dirname "$0")/.."

doc=${1:-EXPERIMENTS.md}
pins=${2:-crates/bench/expected}
if [ ! -f "$doc" ] || ! ls "$pins"/*.txt > /dev/null 2>&1; then
    echo "usage: $0 [EXPERIMENTS.md [PIN_DIR]] (no $doc, or no pins in $pins)" >&2
    exit 2
fi

awk '
    # Every number of every pin, once.
    FNR == 1 { in_doc = (FILENAME == doc) }
    !in_doc {
        line = $0
        while (match(line, /[0-9]+(\.[0-9]+)?/)) {
            pinned[substr(line, RSTART, RLENGTH) + 0] = 1
            line = substr(line, RSTART + RLENGTH)
        }
        next
    }

    # The sections whose hardware numbers are pinned.
    /^## / {
        check(); para = ""
        section = $0
        sub(/^## /, "", section)
        checked = (section ~ /^(Fig\. 14[abc]|Fig\. 15|Fig\. 17|Section V power) /)
        next
    }
    checked && /^\*Reproduction\*/ { para = $0; next }
    para != "" && /^[[:space:]]*$/ { check(); para = ""; next }
    para != "" { para = para " " $0 }
    END {
        check()
        if (bad) exit 1
        printf "%d quoted hardware numbers, all pinned\n", quotes
    }

    # Checks every quote in the paragraph held in `para`.
    function check(    text, before, after, num, value, tol, rest) {
        text = para
        while (match(text, /[0-9]+(\.[0-9]+)?/)) {
            before = substr(text, 1, RSTART - 1)
            num = substr(text, RSTART, RLENGTH)
            after = substr(text, RSTART + RLENGTH)
            text = after
            if (before ~ /[A-Za-z_^]$/ || before ~ /within $/) continue
            rest = after
            while (match(rest, /^ *→ *~?[0-9]+(\.[0-9]+)?/)) rest = substr(rest, RLENGTH + 1)
            value = num + 0
            tol = 0.5
            if (index(num, ".")) tol = 0.5 / 10 ^ (length(num) - index(num, "."))
            if (rest ~ /^ k cycles/) {
                value *= 1000
                tol = 500
            } else if (rest !~ /^ ?(Mt\/s|MHz|mW|µs|cycles|%)/ && !index(num, ".")) {
                continue
            }
            quotes++
            if (!pinned_near(value, tol)) {
                printf "%s: ## %s: %s appears in no pinned table\n", doc, section, num
                bad = 1
            }
        }
    }

    function pinned_near(value, tol,    p) {
        for (p in pinned) {
            if (p - value <= tol + 1e-9 && value - p <= tol + 1e-9) return 1
        }
        return 0
    }
' doc="$doc" "$pins"/*.txt "$doc"
