#!/usr/bin/env bash
# Checks that the knob tables in README.md and docs/*.md name only flags cgraph_cli
# still accepts: every `--flag` in the first or second cell of a table row must appear
# in `cgraph_cli --help`. A documented prefix such as `--trace-*` must start at least
# one flag. Exits non-zero listing every stale flag. Registered as a tier-1 CTest case
# (tools/CMakeLists.txt); run by hand as
#   tools/check_docs_flags.sh build/tools/cgraph_cli
set -euo pipefail

CLI=$(realpath "$1")
cd "$(dirname "$0")/.."

HELP_FLAGS=$("$CLI" --help | grep -oE -- '--[a-z][a-z0-9-]*' | sort -u)
STALE=0

for file in README.md docs/*.md; do
  while IFS= read -r flag; do
    if [[ "$flag" == *- ]]; then
      grep -q -- "^$flag" <<<"$HELP_FLAGS" && continue
    else
      grep -qx -- "$flag" <<<"$HELP_FLAGS" && continue
    fi
    echo "STALE: $file documents $flag, which cgraph_cli --help does not list"
    STALE=1
  done < <(grep '^|' "$file" | sed 's/\\|/ /g' | awk -F'|' '{ print $2 "|" $3 }' |
           grep -oE -- '--[a-z][a-z0-9-]*' | sort -u)
done

if [ "$STALE" -ne 0 ]; then
  echo "docs flag check FAILED" >&2
  exit 1
fi
echo "docs flag check OK"
