#!/usr/bin/env bash
# Public-surface audit: every `pub` item of a library crate must have a
# caller outside that library, or a reasoned line in the allowlist.
#
# For each library crate under crates/ (the shims copy external APIs and
# are skipped), list every `pub fn/struct/enum/trait/const/type/static`
# in its library sources (`src/` minus `src/bin/` and `src/main.rs`),
# stopping at each file's first `#[cfg(test)]`. An item is a hit when no
# `*.rs` file outside that library names it as a word outside a `//`
# comment. Outside means:
# another workspace crate, the crate's own `tests/`, `src/bin/` or
# `src/main.rs`, the root `tests/` and `examples/`, and `benchmark/`.
#
# Every hit must appear in scripts/pub_audit.allow as `path name # reason`.
# The allowlist may only shrink: it must not grow past ALLOW_CEILING.
#
#   bash scripts/pub_audit.sh          # exit 0 when clean
#   bash scripts/pub_audit.sh --list   # print every hit, allowed or not
set -euo pipefail

# Lower this whenever the allowlist shrinks; never raise it.
ALLOW_CEILING=30

cd "$(dirname "$0")/.."
ALLOW=scripts/pub_audit.allow
LIST=0
[ "${1:-}" = "--list" ] && LIST=1

all_rs=$(find . -name '*.rs' -not -path '*/target/*' -not -path './.git/*' | sed 's|^\./||' | sort)

hits=0
unallowed=0
for manifest in crates/*/Cargo.toml; do
    crate=${manifest%/Cargo.toml}
    [ -f "$crate/src/lib.rs" ] || continue
    lib_files=$(printf '%s\n' "$all_rs" | grep "^$crate/src/" \
        | grep -v "^$crate/src/bin/" | grep -vx "$crate/src/main.rs")
    outside=$(printf '%s\n' "$all_rs" | grep -vxF "$lib_files")
    # Every identifier named outside the library, one per line. `//`
    # line and doc comments are stripped first (`://` is left alone, so
    # URLs in strings survive): a name in prose is not a caller.
    words=$(printf '%s\n' "$outside" | xargs sed -E 's@(^|[^:])//.*$@\1@' \
        | grep -ow '[A-Za-z_][A-Za-z0-9_]*' | sort -u)
    for file in $lib_files; do
        items=$(sed '/#\[cfg(test)\]/,$d' "$file" \
            | grep -oE '^\s*pub\s+((const|async|unsafe)\s+)*(fn|struct|enum|trait|const|type|static)\s+[A-Za-z_][A-Za-z0-9_]*' \
            | grep -oE '[A-Za-z_][A-Za-z0-9_]*$' || true)
        for name in $items; do
            grep -qxF "$name" <<<"$words" && continue
            hits=$((hits + 1))
            if grep -qE "^$file $name( |$)" "$ALLOW" 2>/dev/null; then
                [ "$LIST" = 1 ] && echo "allowed  $file $name"
            else
                unallowed=$((unallowed + 1))
                echo "NO CALLER  $file $name"
            fi
        done
    done
done

allowed=$(grep -cvE '^\s*(#|$)' "$ALLOW" 2>/dev/null || true)
echo "pub items with no outside caller: $hits ($unallowed not on the allowlist; allowlist $allowed/$ALLOW_CEILING)"
status=0
if [ "$unallowed" -gt 0 ]; then
    echo "error: make these pub(crate) or private, delete them, or allowlist them with a reason" >&2
    status=1
fi
if [ "$allowed" -gt "$ALLOW_CEILING" ]; then
    echo "error: $ALLOW has $allowed entries, above the ceiling of $ALLOW_CEILING" >&2
    status=1
fi
exit $status
