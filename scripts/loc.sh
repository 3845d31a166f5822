#!/usr/bin/env bash
# loc.sh — the line-count ratchet. Prints the non-test Go line count of
# every package outside benchmark/ and the total, then fails (exit 1) when
# the total exceeds the budget committed in LOC_BUDGET.txt. A change that
# shrinks the code should lower the budget to the new total.
#
#   bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."
shopt -s globstar nullglob

files=()
for f in **/*.go; do
	case $f in
	benchmark/* | *_test.go) continue ;;
	esac
	files+=("$f")
done
budget=$(tr -d '[:space:]' <LOC_BUDGET.txt)

awk -v budget="$budget" '
function flush() {
	if (dir != "") printf "%7d  %s\n", n, dir
}
FNR == 1 {
	d = FILENAME
	sub(/\/[^\/]*$/, "", d)
	if (d == FILENAME) d = "."
	if (d != dir) {
		flush()
		dir = d
		n = 0
	}
}
{ n++; total++ }
END {
	flush()
	printf "%7d  total (budget %d)\n", total, budget
	if (total > budget) {
		printf "loc: %d non-test Go lines exceed the budget of %d in LOC_BUDGET.txt\n", total, budget > "/dev/stderr"
		exit 1
	}
}' "${files[@]}"
