#!/usr/bin/env bash
# Command-line contract checks for cgraph_cli, registered as tier-1 CTest cases in
# tools/CMakeLists.txt.
#
#   tools/cli_check.sh golden CLI GOLDEN.csv [FLAGS...]
#       Runs CLI with FLAGS plus --csv, requires exit 0, and requires the CSV's modeled
#       columns (1-13; column 14 is wall-clock) to equal GOLDEN.csv byte for byte.
#   tools/cli_check.sh rejects CLI [FLAGS...]
#       Requires CLI to exit 2 (usage error) and echoes its stderr, which the CTest case
#       matches with PASS_REGULAR_EXPRESSION. Any other exit status prints only a FAIL
#       line, so the expression cannot match.

set -euo pipefail

MODE=$1
CLI=$2
shift 2

case "$MODE" in
  golden)
    GOLDEN=$1
    shift
    TMP=$(mktemp -d)
    trap 'rm -rf "$TMP"' EXIT
    "$CLI" "$@" --csv="$TMP/run.csv" >/dev/null
    if ! diff <(cut -d, -f1-13 "$TMP/run.csv") "$GOLDEN"; then
      echo "FAIL: modeled CSV columns differ from $GOLDEN" >&2
      exit 1
    fi
    echo "OK: modeled CSV columns match $GOLDEN"
    ;;
  rejects)
    STATUS=0
    STDERR=$({ "$CLI" "$@" >/dev/null; } 2>&1) || STATUS=$?
    if [ "$STATUS" -ne 2 ]; then
      echo "FAIL: expected exit 2, got $STATUS"
      exit 1
    fi
    echo "$STDERR"
    ;;
  *)
    echo "usage: $0 golden|rejects CLI ..." >&2
    exit 2
    ;;
esac
