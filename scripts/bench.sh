#!/bin/sh
# bench.sh — run a benchmark suite and record the results as a JSON
# artifact at the repo root, so the perf trajectory is tracked across
# PRs. Dependency-free: POSIX sh + awk + the Go toolchain.
#
# Suites:
#   mining (default) — the §5.1.1 clustering hot path → BENCH_mining.json
#   crawl            — the monitor event loop (serial vs parallel) and
#                      the end-to-end study → BENCH_crawl.json
#
#   BENCHTIME=5x OUT=/tmp/bench.json sh scripts/bench.sh
#   SUITE=crawl sh scripts/bench.sh
#   FILTER='^n=200$' sh scripts/bench.sh   # restrict to one size tier
#   PROFILE_DIR=/tmp/prof sh scripts/bench.sh   # also capture CPU/heap
#                pprof profiles (single-package suites only — go test
#                rejects profile flags over multiple packages)
set -eu

cd "$(dirname "$0")/.."

SUITE="${SUITE:-mining}"
BENCHTIME="${BENCHTIME:-2x}"
case "$SUITE" in
mining)
	PKGS="."
	PAT='^(BenchmarkClusterWPNs|BenchmarkClusterWPNsBlockedLarge|BenchmarkSoftCosineMatrix)$'
	DEFOUT="BENCH_mining.json"
	;;
crawl)
	PKGS="./internal/crawler ."
	PAT='^(BenchmarkCrawlMonitor|BenchmarkStudyEndToEnd)$'
	DEFOUT="BENCH_crawl.json"
	;;
*)
	echo "unknown SUITE '$SUITE' (want mining or crawl)" >&2
	exit 2
	;;
esac
OUT="${OUT:-$DEFOUT}"
# FILTER narrows the run to matching sub-benchmarks (e.g. '^n=200$'),
# used by bench_check.sh to keep the regression gate cheap.
if [ -n "${FILTER:-}" ]; then
	PAT="$PAT/$FILTER"
fi
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

PROFFLAGS=""
if [ -n "${PROFILE_DIR:-}" ]; then
	case "$PKGS" in
	*" "*)
		echo "PROFILE_DIR needs a single-package suite (got PKGS='$PKGS')" >&2
		exit 2
		;;
	esac
	mkdir -p "$PROFILE_DIR"
	PROFFLAGS="-cpuprofile $PROFILE_DIR/cpu.pprof -memprofile $PROFILE_DIR/mem.pprof -o $PROFILE_DIR/bench.test"
fi

# shellcheck disable=SC2086 # PKGS/PROFFLAGS are deliberate word lists
go test -run '^$' \
	-bench "$PAT" \
	-benchtime "$BENCHTIME" -timeout 60m $PROFFLAGS $PKGS | tee "$TMP"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
	/^Benchmark/ {
		name = $1; iters = $2; ns = $3
		sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
		split(name, parts, "/")
		bench = parts[1]; size = parts[2]; mode = parts[3]
		sub(/^n=/, "", size)
		# Per-stage wall-times reported via telemetry as "<stage>-ns/op"
		# custom metrics (BenchmarkClusterWPNs only).
		stages = ""
		sweeps = ""
		extras = ""
		for (i = 5; i + 1 <= NF; i += 2) {
			unit = $(i + 1)
			if (unit ~ /^sweep_.*-ns\/op$/) {
				# Cut-sweep attribution: per-height-bucket wall times
				# ("sweep_<bucket>-ns/op"), folded into a sweep_ns object
				# (BenchmarkClusterWPNsBlockedLarge only). Must match
				# before the generic -ns/op stage branch.
				bucket = unit
				sub(/^sweep_/, "", bucket)
				sub(/-ns\/op$/, "", bucket)
				if (sweeps != "") sweeps = sweeps ", "
				sweeps = sweeps sprintf("\"%s\": %s", bucket, $(i))
			} else if (unit ~ /-ns\/op$/) {
				stage = unit
				sub(/-ns\/op$/, "", stage)
				if (stages != "") stages = stages ", "
				stages = stages sprintf("\"%s\": %s", stage, $(i))
			} else if (unit == "exact-pairs") {
				# Blocked-path pair accounting: soft-cosine evaluations
				# actually performed (Σ|B|² within blocks), vs n(n-1)/2
				# on the exact route.
				extras = extras sprintf(", \"exact_pairs\": %.0f", $(i))
			} else if (unit == "memo-hits") {
				# Memoized-sweep accounting: (height, block) cells served
				# from the per-block cut memo instead of re-scored.
				extras = extras sprintf(", \"sweep_memo_hits\": %.0f", $(i))
			} else if (unit == "blocks-rescored") {
				# Blocks actually crossed+summed per height, totalled over
				# the sweep (far fewer than heights × blocks).
				extras = extras sprintf(", \"sweep_blocks_rescored\": %.0f", $(i))
			}
		}
		if (stages != "") stages = sprintf(", \"stage_ns\": {%s}", stages)
		if (sweeps != "") stages = stages sprintf(", \"sweep_ns\": {%s}", sweeps)
		stages = stages extras
		if (out != "") out = out ",\n"
		out = out sprintf("    {\"bench\": \"%s\", \"n\": %s, \"mode\": \"%s\", \"iters\": %s, \"ns_per_op\": %s%s}",
			bench, size, mode, iters, ns, stages)
		nsof[bench "/" size "/" mode] = ns
	}
	END {
		speed = ""
		for (n = 50; n <= 200; n += 150) {
			s = nsof["BenchmarkCrawlMonitor/" n "/serial"]
			p = nsof["BenchmarkCrawlMonitor/" n "/parallel"]
			if (s != "" && p != "")
				speed = speed sprintf(",\n  \"speedup_n%d_serial_vs_parallel\": %.2f", n, s / p)
			s = nsof["BenchmarkStudyEndToEnd/" n "/serial"]
			p = nsof["BenchmarkStudyEndToEnd/" n "/parallel"]
			f = nsof["BenchmarkStudyEndToEnd/" n "/fleet4"]
			if (s != "" && p != "")
				speed = speed sprintf(",\n  \"speedup_study_n%d_serial_vs_parallel\": %.2f", n, s / p)
			if (p != "" && f != "")
				speed = speed sprintf(",\n  \"overhead_study_n%d_fleet4_vs_parallel\": %.2f", n, f / p)
		}
		printf "{\n  \"date\": \"%s\",\n  \"benchtime\": \"'"$BENCHTIME"'\",\n  \"results\": [\n%s\n  ]%s\n}\n",
			date, out, speed
	}
' "$TMP" > "$OUT"

echo "wrote $OUT"
