#!/usr/bin/env bash
# Panic-site audit: per library crate, count the `.unwrap()`, `.expect(`,
# `panic!` and `unreachable!` sites in `src/` (its binaries included),
# stopping at each file's first `#[cfg(test)]`, and fail when a crate's
# count is above its ceiling. The shims copy external APIs and are
# skipped.
#
# A ceiling may only fall: when a crate's count drops, lower its ceiling
# to match; never raise one. A crate missing from the table has ceiling 0.
#
#   bash scripts/panic_audit.sh          # exit 0 when no crate is above its ceiling
#   bash scripts/panic_audit.sh --list   # also print every site
set -euo pipefail

declare -A CEILING=(
    [bench]=6 [core]=2 [fountain]=4 [node]=27 [obs]=6 [overlay]=8
    [sketch]=13 [swarm]=2 [util]=5 [wire]=6
)

cd "$(dirname "$0")/.."
LIST=0
[ "${1:-}" = "--list" ] && LIST=1
PATTERN='\.unwrap\(\)|\.expect\(|panic!|unreachable!'

status=0
for manifest in crates/*/Cargo.toml; do
    crate=${manifest%/Cargo.toml}
    [ -f "$crate/src/lib.rs" ] || continue
    name=${crate#crates/}
    count=0
    for file in $(find "$crate/src" -name '*.rs' | sort); do
        sites=$(sed '/#\[cfg(test)\]/,$d' "$file" | grep -nE "$PATTERN" || true)
        [ -n "$sites" ] || continue
        count=$((count + $(grep -oE "$PATTERN" <<<"$sites" | wc -l)))
        [ "$LIST" = 1 ] && sed "s|^|  $file:|" <<<"$sites"
    done
    ceiling=${CEILING[$name]:-0}
    echo "$name: $count panic sites (ceiling $ceiling)"
    if [ "$count" -gt "$ceiling" ]; then
        echo "error: $name is above its ceiling; return a typed error instead, or say why the site is unreachable" >&2
        status=1
    elif [ "$count" -lt "$ceiling" ]; then
        echo "  $name fell below its ceiling: lower it to $count in $0"
    fi
done
exit $status
