#!/usr/bin/env bash
# Paired benchmark runs, parent against working tree: the rule a performance
# claim has to pass (choosing-metrics guide, section 8) as one command.
#
#   scripts/benchpairs.sh <workload> [pairs=10] [seconds=30]
#   make bench-pairs W=tenants N=10 S=30 [T=1]
#
# Exports the parent commit into $OUT/parent, builds both sides with their own
# bench/run.sh (a discarded one-second run each), then runs <pairs> pairs of
#   bash bench/run.sh --workload W --seed SEED0+i --seconds S --trace T
# alternating which side goes first, and prints, per end-to-end metric of
# BENCHMARK.json: both medians, both quartile spreads (q3 - q1), the change of
# the median, in how many pairs the working tree was ahead and in how many
# the two were equal. Every run with failed > 0 is listed. The verdict column
# applies the rule: "gain" when the working tree wins at least nine tenths of
# the pairs and the medians differ by more than the parent's quartile spread;
# "WORSE" when its median is worse than the parent's by more than the
# metric's bound; "noisy" when the parent's spread is wider than that bound
# (unresolved, not unchanged).
#
# With T=1 the pairs are traced runs, and the table shows instead the
# per-layer metrics of TRACED below — where an epoch's write path spends its
# time (the application's step, the fold, the cost per recorded object, the
# write barrier, the handoff to the log), where a restart's time goes, the
# restart's reads, and how much of it the spans leave unaccounted for
# (bench.reconcile_err_pct, which the benchmark gates at 5 %) — with no
# bound, so the verdict is "gain" or "-". It also counts, per side, the runs
# that exited non-zero.
#
# Environment:
#   BASE    parent commit (default: HEAD if the working tree differs from it,
#           else HEAD~1)
#   PARENT  an existing checkout of the parent to use instead of exporting one
#   OUT     scratch directory (default bench/out/pairs, git-ignored)
#   SEED0   first seed (default 101: seeds 1..10 are -selfcheck's and 7 is the
#           README's example, so development tends to have seen those)
#   T       1 for traced pairs (default 0)
set -euo pipefail

TRACED='["workload.step_ms_per_epoch", "ckpt.writer.fold_ms_per_epoch", "ckpt.writer.ns_per_recorded",
	"ckpt.tracker.barrier_ns_per_mark", "stablelog.async.handoff_us_p50",
	"stablelog.log.open_ms", "stablelog.log.recover_ms", "ckpt.rebuilder.build_ms",
	"bench.reconcile_err_pct", "stablelog.fs.reads_recover", "stablelog.fs.read_bytes_recover"]'

if [ $# -lt 1 ]; then
	sed -n '2,37p' "$0" >&2
	exit 2
fi
W=$1 N=${2:-10} S=${3:-30}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
OUT=${OUT:-$root/bench/out/pairs}
SEED0=${SEED0:-101}
T=${T:-0}
mkdir -p "$OUT"
OUT="$(cd "$OUT" && pwd)"

if [ -z "${PARENT:-}" ]; then
	if [ -z "${BASE:-}" ]; then
		if git diff --quiet HEAD; then BASE=HEAD~1; else BASE=HEAD; fi
	fi
	PARENT="$OUT/parent"
	rm -rf "$PARENT"
	mkdir -p "$PARENT"
	git archive "$BASE" | tar -x -C "$PARENT"
	echo "parent: $(git rev-parse --short "$BASE") exported to $PARENT" >&2
else
	echo "parent: existing checkout $PARENT" >&2
fi

runs="$OUT/runs-$W.jsonl"
if [ "$T" = 1 ]; then runs="$OUT/runs-$W-traced.jsonl"; fi
: >"$runs"

# run <side> <dir> <pair> <seed> <position>: one pipeline-form run; its last
# stdout line is the result, and a run that exits non-zero is recorded with
# its exit status.
run() {
	local side=$1 dir=$2 pair=$3 seed=$4 pos=$5 line rc=0
	line="$(cd "$dir" && bash bench/run.sh --workload "$W" --seed "$seed" --seconds "$S" --trace "$T" | tail -n 1)" || rc=$?
	if ! jq -e . >/dev/null 2>&1 <<<"$line"; then
		line='{"failed": null, "attempted": null, "metrics": {}}'
	fi
	jq -c --arg side "$side" --argjson pair "$pair" --argjson seed "$seed" --arg pos "$pos" --argjson rc "$rc" \
		'{side: $side, pair: $pair, seed: $seed, pos: $pos, exit: $rc, failed, attempted,
		  metrics: (.metrics | map_values(.value))}' <<<"$line" >>"$runs"
	echo "  pair $pair seed $seed $side ($pos): exit=$rc failed=$(jq .failed <<<"$line")" >&2
}

echo "build + warm-up (discarded)" >&2
(cd "$PARENT" && bash bench/run.sh --workload "$W" --seed 0 --seconds 1 --trace 0 >/dev/null)
bash bench/run.sh --workload "$W" --seed 0 --seconds 1 --trace 0 >/dev/null

for ((i = 0; i < N; i++)); do
	seed=$((SEED0 + i))
	if ((i % 2 == 0)); then
		run parent "$PARENT" "$i" "$seed" first
		run change "$root" "$i" "$seed" second
	else
		run change "$root" "$i" "$seed" first
		run parent "$PARENT" "$i" "$seed" second
	fi
done

echo
echo "workload $W: $N pairs, --seconds $S, --trace $T, seeds $SEED0..$((SEED0 + N - 1)); runs in $runs"
jq -r -s --slurpfile bm "$root/BENCHMARK.json" --argjson traced "$TRACED" --arg T "$T" '
	def quantile(p): sort as $a | ((($a | length) - 1) * p) as $i
		| ($i | floor) as $lo | ($i | ceil) as $hi
		| $a[$lo] + ($a[$hi] - $a[$lo]) * ($i - $lo);
	. as $runs
	| (if $T == "1" then $bm[0].per_layer[] | select(.name | IN($traced[])) else $bm[0].end_to_end[] end)
	| . as $m
	| [$runs[] | select(.side == "parent")] | sort_by(.pair) | map(.metrics[$m.name]) as $p
	| [$runs[] | select(.side == "change")] | sort_by(.pair) | map(.metrics[$m.name]) as $c
	| (if $m.better == "higher" then 1 else -1 end) as $dir
	| [range(0; $p | length) | ($c[.] - $p[.]) * $dir] as $d
	| ($p | quantile(0.5)) as $pm | ($c | quantile(0.5)) as $cm
	| (($p | quantile(0.75)) - ($p | quantile(0.25))) as $piqr
	| (($c | quantile(0.75)) - ($c | quantile(0.25))) as $ciqr
	| ([$d[] | select(. > 0)] | length) as $wins
	| ([$d[] | select(. == 0)] | length) as $ties
	| (if $pm == 0 then 0 else ($cm - $pm) / ($pm | fabs) end) as $rel
	| (if $wins * 10 >= ($d | length) * 9 and (($cm - $pm) | fabs) > $piqr then "gain"
	   elif $m.bound == null then "-"
	   elif $rel * $dir < -$m.bound then "WORSE"
	   elif $pm != 0 and $piqr / ($pm | fabs) > $m.bound then "noisy"
	   else "-" end) as $verdict
	| [$m.name, $m.unit, $pm, $piqr, $cm, $ciqr, $rel * 100, "\($wins)/\($d | length)", $ties, $verdict]
	| @tsv' "$runs" |
	awk -F'\t' 'BEGIN {
		printf "%-32s %-6s %12s %11s %12s %11s %8s %6s %5s  %s\n",
			"metric", "unit", "parent_med", "parent_iqr", "change_med", "change_iqr", "delta%", "ahead", "ties", "verdict"
	}
	{ printf "%-32s %-6s %12.6g %11.4g %12.6g %11.4g %+8.2f %6s %5s  %s\n", $1, $2, $3, $4, $5, $6, $7, $8, $9, $10 }'
jq -r -s '"runs that exited non-zero: parent \([.[] | select(.side == "parent" and .exit != 0)] | length)/\([.[] | select(.side == "parent")] | length), change \([.[] | select(.side == "change" and .exit != 0)] | length)/\([.[] | select(.side == "change")] | length)"' "$runs"

bad="$(jq -r 'select(.failed > 0) | "  pair \(.pair) seed \(.seed) \(.side): failed=\(.failed) of \(.attempted)"' "$runs")"
if [ -n "$bad" ]; then
	echo "runs with failed > 0:"
	echo "$bad"
	exit 1
fi
echo "no run had failed > 0"
