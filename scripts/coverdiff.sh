#!/usr/bin/env bash
# coverdiff.sh — list the coverage blocks of one package that some test runs
# cover and others do not: the blocks that make a coverage reading vary from
# run to run.
#
#   bash scripts/coverdiff.sh <package> [runs] [go test flags...]
#   bash scripts/coverdiff.sh ./internal/gateway/ 20
#
# Runs `go test -count=1 -coverprofile` on the package `runs` times (default
# 20), one run at a time, then prints every block (file:line.col,line.col)
# covered in some runs and not in others, with how many runs covered it, and
# how many runs read each total. A package whose total reads one value and
# which lists no block is deterministic. Report-only: it exits non-zero only
# when a test run fails.
set -euo pipefail
cd "$(dirname "$0")/.."

pkg=${1:?usage: scripts/coverdiff.sh <package> [runs] [go test flags...]}
runs=${2:-20}
shift $(($# >= 2 ? 2 : 1))

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
for i in $(seq 1 "$runs"); do
  if ! go test -count=1 -coverprofile="$dir/$i.cover" "$@" "$pkg" >"$dir/$i.log" 2>&1; then
    cat "$dir/$i.log"
    exit 1
  fi
done

echo "blocks covered in some of $runs runs:"
awk '
  FNR == 1 { files++; next }
  {
    stmts[$1] = $2
    if ($3 > 0 && !((FILENAME, $1) in hit)) { hit[FILENAME, $1] = 1; n[$1]++ }
  }
  END {
    for (k in stmts)
      if (n[k] > 0 && n[k] < files)
        printf "  %s  %d stmt(s), covered in %d/%d runs\n", k, stmts[k], n[k], files | "sort"
  }
' "$dir"/*.cover

echo "total coverage readings:"
grep -ho 'coverage: [0-9.]*% of statements' "$dir"/*.log | sort | uniq -c | sed 's/^/ /'
