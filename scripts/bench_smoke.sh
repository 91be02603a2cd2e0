#!/usr/bin/env bash
# bench_smoke.sh — performance smoke gates.
#
# Three gates, selected by the optional mode argument (default: all):
#
#   pipeline  BenchmarkPipelineNoRegistry (a full source -> filter -> sink
#             run with no metrics registry attached, where every
#             instrumentation hook must cost one nil pointer comparison)
#             must not regress more than 5% against the recorded baseline.
#             With no baseline recorded yet, records one and succeeds.
#   batch     BenchmarkFig5SEQBatch (the fig5 SEQ workload with edge
#             batching disabled vs the engine default) — the batched run
#             must be at least BENCH_BATCH_MIN_GAIN percent faster,
#             best-of-N on both sides. The measured pair is refreshed in
#             results/bench_baseline.txt for the record.
#   window    fig3c plain FASP at W=30 and W=360 min (benchrunner, bench
#             scale), best-of-N tpl/s on both sides: W=360 must keep at
#             least 1/BENCH_WINDOW_MAX_DECAY of W=30's throughput. Guards
#             the sliding window join against re-joining pane pairs once
#             per covering window, which made throughput fall with W.
#
#   make bench-smoke            # all gates
#   make bench-batch            # batching gate only
#   make bench-window           # window-decay gate only
#   BENCH_SMOKE_COUNT=10 ...    # more repetitions (default 5, best wins)
#   BENCH_BATCH_MIN_GAIN=10 ... # relax the batching bar (default 20%)
#   BENCH_WINDOW_MAX_DECAY=9 .. # relax the window bar (default 8x)
#   rm results/bench_baseline.txt && make bench-smoke   # re-record
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-all}"
baseline_file=results/bench_baseline.txt

pipeline_gate() {
	local bench=BenchmarkPipelineNoRegistry
	local runs="${BENCH_SMOKE_COUNT:-5}"
	local benchtime="${BENCH_SMOKE_TIME:-0.3s}"

	local out
	out=$(go test ./internal/asp/ -run '^$' -bench "^${bench}\$" \
		-count="$runs" -benchtime="$benchtime")
	echo "$out"

	local best
	best=$(echo "$out" | awk -v b="$bench" '$1 ~ "^"b {print $3}' | sort -n | head -1)
	if [ -z "$best" ]; then
		echo "bench-smoke: no result for $bench" >&2
		exit 1
	fi

	if [ ! -f "$baseline_file" ]; then
		mkdir -p "$(dirname "$baseline_file")"
		printf '%s %s ns/op\n' "$bench" "$best" >"$baseline_file"
		echo "bench-smoke: recorded baseline $best ns/op in $baseline_file"
		return
	fi

	local base
	base=$(awk -v b="$bench" '$1 == b {print $2}' "$baseline_file")
	if [ -z "$base" ]; then
		echo "bench-smoke: $baseline_file has no entry for $bench; delete it to re-record" >&2
		exit 1
	fi

	echo "bench-smoke: best $best ns/op vs baseline $base ns/op (limit +5%)"
	if awk -v best="$best" -v base="$base" 'BEGIN{exit !(best > base * 1.05)}'; then
		echo "bench-smoke: FAIL — no-registry fast path regressed more than 5%" >&2
		exit 1
	fi
	echo "bench-smoke: OK"
}

batch_gate() {
	local bench=BenchmarkFig5SEQBatch
	local min_gain="${BENCH_BATCH_MIN_GAIN:-20}"
	local runs="${BENCH_BATCH_COUNT:-4}"
	local benchtime="${BENCH_BATCH_TIME:-8x}"

	local out
	out=$(go test . -run '^$' -bench "^${bench}\$" \
		-count="$runs" -benchtime="$benchtime")
	echo "$out"

	local unbatched batched
	unbatched=$(echo "$out" | awk -v b="$bench/batch=1" '$1 ~ "^"b {print $3}' | sort -n | head -1)
	batched=$(echo "$out" | awk -v b="$bench/batch=default" '$1 ~ "^"b {print $3}' | sort -n | head -1)
	if [ -z "$unbatched" ] || [ -z "$batched" ]; then
		echo "bench-batch: missing results for $bench" >&2
		exit 1
	fi

	local gain
	gain=$(awk -v u="$unbatched" -v b="$batched" 'BEGIN{printf "%.1f", (u / b - 1) * 100}')
	echo "bench-batch: unbatched $unbatched ns/op, batched $batched ns/op: +${gain}% throughput"
	if awk -v u="$unbatched" -v b="$batched" -v g="$min_gain" \
		'BEGIN{exit !(u / b < 1 + g / 100)}'; then
		echo "bench-batch: FAIL — edge batching gained less than ${min_gain}%" >&2
		exit 1
	fi

	# Refresh the recorded pair, preserving every other baseline entry.
	mkdir -p "$(dirname "$baseline_file")"
	touch "$baseline_file"
	local tmp
	tmp=$(mktemp)
	grep -v "^${bench}/" "$baseline_file" | grep -v '^# batched' >"$tmp" || true
	{
		printf '%s/batch=1 %s ns/op\n' "$bench" "$unbatched"
		printf '%s/batch=default %s ns/op\n' "$bench" "$batched"
		printf '# batched throughput gain: +%s%%\n' "$gain"
	} >>"$tmp"
	mv "$tmp" "$baseline_file"
	echo "bench-batch: OK (recorded in $baseline_file)"
}

window_gate() {
	local max_decay="${BENCH_WINDOW_MAX_DECAY:-8}"
	local runs="${BENCH_SMOKE_COUNT:-5}"
	local bin
	bin=$(mktemp -d)/benchrunner
	go build -o "$bin" ./cmd/benchrunner

	local out="" i
	for ((i = 0; i < runs; i++)); do
		out+=$("$bin" -exp fig3c -scale bench)$'\n'
	done
	rm -rf "$(dirname "$bin")"
	echo "$out" | grep -E '^fig3c/W=(30|360) +FASP ' || true

	local w30 w360
	# The overload accounting lines share the first two columns; require a
	# numeric tpl/s column.
	w30=$(echo "$out" | awk '$1 == "fig3c/W=30" && $2 == "FASP" && $3 ~ /^[0-9.]+$/ {print $3}' | sort -n | tail -1)
	w360=$(echo "$out" | awk '$1 == "fig3c/W=360" && $2 == "FASP" && $3 ~ /^[0-9.]+$/ {print $3}' | sort -n | tail -1)
	if [ -z "$w30" ] || [ -z "$w360" ]; then
		echo "bench-window: missing fig3c FASP rows for W=30 or W=360" >&2
		exit 1
	fi

	local decay
	decay=$(awk -v a="$w30" -v b="$w360" 'BEGIN{printf "%.2f", a / b}')
	echo "bench-window: best FASP W=30 $w30 tpl/s, W=360 $w360 tpl/s: ${decay}x decay (limit ${max_decay}x)"
	if awk -v a="$w30" -v b="$w360" -v m="$max_decay" 'BEGIN{exit !(a > b * m)}'; then
		echo "bench-window: FAIL — W=360 throughput fell below 1/${max_decay} of W=30" >&2
		exit 1
	fi
	echo "bench-window: OK"
}

case "$mode" in
all)
	pipeline_gate
	batch_gate
	window_gate
	;;
pipeline) pipeline_gate ;;
batch) batch_gate ;;
window) window_gate ;;
*)
	echo "usage: $0 [all|pipeline|batch|window]" >&2
	exit 2
	;;
esac
