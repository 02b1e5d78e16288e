#!/usr/bin/env bash
# Exported surface, counted one way so that figures compare across changes:
# for every public package (neither main nor under internal/, outside
# bench/), the number of `func` and `type` lines `go doc -all` prints —
# exported functions, methods and types. A directory that holds only test
# files counts 0.
#
#   scripts/surface.sh         names per package, then the total
#   make surface
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

total=0
while read -r path name files; do
	if [ "$name" = main ] || [[ "$path/" == */internal/* ]]; then
		continue
	fi
	n=0
	if [ "$files" -gt 0 ]; then
		n=$(go doc -all "$path" | grep -cE '^(func|type) ' || true)
	fi
	total=$((total + n))
	printf '%6d  %s\n' "$n" "$path"
done < <(go list -e -f '{{.ImportPath}} {{.Name}} {{len .GoFiles}}' ./...)
printf '%6d  total\n' "$total"
