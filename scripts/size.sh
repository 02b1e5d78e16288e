#!/usr/bin/env bash
# Code size, counted one way so that figures compare across changes:
# non-test, non-blank, non-comment .go lines outside bench/, generated
# zz_*.go files excluded. A line is a comment when its first non-blank
# characters are //.
#
#   scripts/size.sh            lines per package directory, then the total
#   scripts/size.sh FILE...    lines per named file, then their total
#   make size
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

count() { grep -cvE '^[[:space:]]*(//.*)?$' "$1" || true; }

if [ $# -gt 0 ]; then
	files=("$@")
else
	mapfile -t files < <(find . -name '*.go' ! -name '*_test.go' ! -name 'zz_*.go' \
		! -path './bench/*' | sed 's|^\./||' | sort)
fi
total=0
declare -A pkg
for f in "${files[@]}"; do
	n=$(count "$f")
	total=$((total + n))
	if [ $# -gt 0 ]; then
		printf '%6d  %s\n' "$n" "$f"
	else
		d=$(dirname "$f")
		pkg[$d]=$(( ${pkg[$d]:-0} + n ))
	fi
done
if [ $# -eq 0 ]; then
	for d in $(printf '%s\n' "${!pkg[@]}" | sort); do
		printf '%6d  %s\n' "${pkg[$d]}" "$d"
	done
fi
printf '%6d  total\n' "$total"
