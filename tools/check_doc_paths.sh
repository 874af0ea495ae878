#!/usr/bin/env bash
# Checks that every backticked Rust path in the given markdown files whose
# first segment names a crate directory under `crates/` (`fqp::plan::bind`,
# `query::compile`) has a second segment that the crate declares `pub`
# somewhere in its `src/`: a `pub` `mod`, `fn`, `struct`, `enum`, `trait`,
# `type`, `const` or `static` of that name, or a name a `pub use`
# re-exports. Only the first two segments are checked. Exits non-zero
# listing every path whose second segment the crate does not declare.
#
# Usage: tools/check_doc_paths.sh FILE.md [FILE.md ...]
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
    echo "usage: $0 FILE.md [FILE.md ...]" >&2
    exit 2
fi

ident='[A-Za-z_][A-Za-z0-9_]*'

# Prints the names crate directory `crates/$1` declares public, one a line.
public_names() {
    local src="crates/$1/src"
    # Items: `pub [const|unsafe|async ]<kind> [mut ]name`.
    grep -rhoE --include='*.rs' \
        "\bpub[[:space:]]+((const|unsafe|async)[[:space:]]+)*(mod|fn|struct|enum|trait|type|const|static)[[:space:]]+(mut[[:space:]]+)?$ident" \
        "$src" | awk '{ print $NF }' || true
    # Re-exports: every identifier inside a `pub use …;`, which may span
    # several lines.
    find "$src" -name '*.rs' -type f -exec cat {} + | tr '\n' ' ' |
        grep -oE '\bpub[[:space:]]+use[[:space:]][^;]*;' |
        grep -oE "$ident" || true
}

declare -A names
status=0
for file in "$@"; do
    if [ ! -f "$file" ]; then
        echo "MISSING: $file"
        status=1
        continue
    fi
    while IFS=: read -r line path; do
        path=${path#\`}
        krate=${path%%::*}
        item=${path#*::}
        [ -d "crates/$krate/src" ] || continue
        if [ -z "${names[$krate]+set}" ]; then
            names[$krate]=$(public_names "$krate" | sort -u)
        fi
        if ! grep -qxF "$item" <<<"${names[$krate]}"; then
            echo "STALE: $file:$line: \`$krate::$item\` — crates/$krate declares no pub $item"
            status=1
        fi
    done < <(grep -noE "\`$ident::$ident" "$file" || true)
done

if [ "$status" -ne 0 ]; then
    echo "doc paths name items their crates do not declare" >&2
else
    echo "all doc paths resolve"
fi
exit "$status"
