#!/usr/bin/env bash
# Flake hunt: runs the tier-1 suite (go test ./...) and the crash-consistency
# suite (the faultcheck package list, under -race) N times each, both with
# -count=1 -shuffle=on, and keeps the whole output of every failing run as
# out/flake/<run>-<suite>.log. go test prints the -shuffle seed it drew, so a
# failing order replays with -shuffle=<seed>. Exits non-zero if any run failed.
#
#   scripts/flake.sh [runs=10] [faultcheck packages...]
#   make flake N=50
set -uo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

N=${1:-10}
shift || true
pkgs=("$@")
if [ ${#pkgs[@]} -eq 0 ]; then
	pkgs=(./internal/faultfs/ ./stablelog/ ./ckpt/ ./ckpt/parfold/ ./ckpt/tenant/ ./internal/difftest/)
fi
GO=${GO:-go}
out=out/flake
mkdir -p "$out"

fails=0
for ((i = 1; i <= N; i++)); do
	for suite in tier1 faultcheck; do
		log="$out/$i-$suite.log"
		if [ "$suite" = tier1 ]; then
			"$GO" test -count=1 -shuffle=on ./... >"$log" 2>&1
		else
			"$GO" test -race -count=1 -shuffle=on "${pkgs[@]}" >"$log" 2>&1
		fi
		if [ $? -eq 0 ]; then
			rm -f "$log"
		else
			fails=$((fails + 1))
			echo "run $i $suite: FAIL (kept $log)" >&2
		fi
	done
	echo "run $i of $N: $fails failing so far" >&2
done
echo "flake: $fails failing runs of $((2 * N))"
[ "$fails" -eq 0 ]
