#!/usr/bin/env bash
# Offline markdown link check for README.md and docs/*.md, plus the
# markdown files code cites.
#
# Every relative link target `[text](path)` must exist on disk
# (anchors are stripped; external http(s)/mailto links are skipped —
# this runs in CI without network access). Every backticked `*.md` name
# in crates/, src/ or tests/ must name a file relative to the repo root
# or to the citing file. Grep-based on purpose: no dependencies, so the
# docs can't rot silently.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
status=0
checked=0

for f in "$root/README.md" "$root"/docs/*.md; do
    [ -f "$f" ] || continue
    dir="$(dirname "$f")"
    while IFS= read -r target; do
        case "$target" in
        http://* | https://* | mailto:*) continue ;;
        esac
        path="${target%%#*}"
        [ -z "$path" ] && continue # same-file anchor
        checked=$((checked + 1))
        if [ ! -e "$dir/$path" ]; then
            echo "BROKEN: $f -> $target" >&2
            status=1
        fi
    done < <(grep -oE '\]\([^)]+\)' "$f" | sed -E 's/^\]\(//; s/\)$//')
done

while IFS= read -r hit; do
    f="${hit%%:*}"
    name="${hit#*:}"
    name="${name//\`/}"
    checked=$((checked + 1))
    if [ ! -e "$root/$name" ] && [ ! -e "$(dirname "$f")/$name" ]; then
        echo "BROKEN: $f cites $name" >&2
        status=1
    fi
done < <(grep -roE --exclude-dir=target '`[^` ]+\.md`' "$root/crates" "$root/src" "$root/tests")

if [ "$status" -eq 0 ]; then
    echo "ok: $checked relative markdown link(s) and citation(s) resolve"
else
    echo "broken markdown links found" >&2
fi
exit "$status"
