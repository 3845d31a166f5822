#!/usr/bin/env bash
# unreach.sh — the reachability gate. Builds every entry point of the
# module (cmd/*, examples/* and the benchmark module) with inlining off,
# reads the dilos/internal/... text symbols the linker kept with
# `go tool nm`, and compares them with every func declared in non-test
# internal/**/*.go. A declared func that no binary links is "unreached".
#
# UNREACHED.txt lists the unreached funcs that are kept on purpose, one
# per line as `symbol  # (tag) reason`, with the symbol in nm's form
# relative to dilos/internal/ (pkg.F, pkg.(*T).M or pkg.T.M, generic
# brackets stripped) and the tag one of
#   (a) test oracle
#   (b) a seam an open ROADMAP item builds on
#   (c) a paper mechanism that only tests drive
#   (d) an accessor of at most 3 lines that tests read
# The gate fails (exit 1) when an unreached func is not listed, when a
# listed func is reached again or no longer exists, or when a line has no
# tag — so the file can only shrink.
#
#   bash scripts/unreach.sh
set -euo pipefail
cd "$(dirname "$0")/.."
shopt -s globstar nullglob

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin"

go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...
go build -C benchmark -gcflags=all=-l -o "$tmp/bin/benchmark" .

for b in "$tmp"/bin/*; do
	go tool nm "$b"
done | awk '
# Strip balanced [...] groups (generic instantiations, go.shape types).
function strip(s,    out, i, c, depth) {
	out = ""
	depth = 0
	for (i = 1; i <= length(s); i++) {
		c = substr(s, i, 1)
		if (c == "[") depth++
		else if (c == "]") depth--
		else if (depth == 0) out = out c
	}
	return out
}
$2 == "T" || $2 == "t" {
	name = $0
	sub(/^ *[0-9a-f]+ [Tt] /, "", name)
	if (name !~ /^dilos\/internal\//) next
	sub(/^dilos\/internal\//, "", name)
	print strip(name)
}' | sort -u >"$tmp/reached"

files=()
for f in internal/**/*.go; do
	case $f in
	*_test.go | */testdata/*) continue ;;
	esac
	files+=("$f")
done

awk '
FNR == 1 {
	pkg = FILENAME
	sub(/^internal\//, "", pkg)
	sub(/\/[^\/]*$/, "", pkg)
}
/^func / {
	line = $0
	sub(/^func /, "", line)
	recv = ""
	if (line ~ /^\(/) {
		i = index(line, ")")
		recv = substr(line, 2, i - 2)
		line = substr(line, i + 1)
		sub(/^ */, "", line)
		# "s *System", "*System", "r Ring[K, V]" -> "(*System)", "Ring"
		sub(/\[.*/, "", recv)
		n = split(recv, parts, " ")
		recv = parts[n]
		if (recv ~ /^\*/) recv = "(" recv ")"
	}
	name = line
	sub(/[\[(].*/, "", name)
	if (name == "init" || name == "_" || name == "") next
	if (recv != "") print pkg "." recv "." name
	else print pkg "." name
}' "${files[@]}" | sort -u >"$tmp/declared"

comm -23 "$tmp/declared" "$tmp/reached" >"$tmp/unreached"

status=0
awk '
/^[[:space:]]*$/ { next }
!/#[[:space:]]*\([abcd]\)/ {
	printf "UNREACHED.txt:%d: no reason tag (a)-(d): %s\n", NR, $0 > "/dev/stderr"
	bad = 1
}
END { exit bad }' UNREACHED.txt || status=1
sed -e 's/#.*//' -e 's/[[:space:]]*$//' -e '/^$/d' UNREACHED.txt | sort -u >"$tmp/listed"

while read -r s; do
	echo "unreach: $s is linked by no binary; delete it or list it in UNREACHED.txt with a reason" >&2
	status=1
done < <(comm -23 "$tmp/unreached" "$tmp/listed")
while read -r s; do
	echo "unreach: $s is listed in UNREACHED.txt but a binary now links it; remove the line" >&2
	status=1
done < <(comm -12 "$tmp/listed" "$tmp/reached")
while read -r s; do
	echo "unreach: $s is listed in UNREACHED.txt but no longer declared; remove the line" >&2
	status=1
done < <(comm -23 "$tmp/listed" "$tmp/declared")

printf "unreach: %d funcs declared in internal/, %d unreached, %d listed in UNREACHED.txt\n" \
	"$(wc -l <"$tmp/declared")" "$(wc -l <"$tmp/unreached")" "$(wc -l <"$tmp/listed")"
exit $status
