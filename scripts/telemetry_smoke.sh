#!/bin/sh
# telemetry_smoke.sh — end-to-end observability gate, through the CLIs:
#  1. a seeded chaos crawl+mine at one shard writes a metrics snapshot
#     with every [study] golden key (scripts/telemetry_keys.txt) and a
#     trace holding whole attack chains;
#  2. the same crawl as a 4-shard fleet under worker kills, scraped live
#     at /fleetz, writes a byte-identical export and a ledger;
#  3. a blocked mine writes the same ledger bytes on every rerun, with
#     or without telemetry attached; the attached run is scraped live at
#     /miningz and its snapshot has every [blocked] golden key.
# Dependency-free: POSIX sh + the Go toolchain (wpnstat is the HTTP
# client).
#
#   sh scripts/telemetry_smoke.sh
set -eu

cd "$(dirname "$0")/.."

TMPD="$(mktemp -d)"
PID=""
cleanup() {
	[ -n "$PID" ] && kill "$PID" 2>/dev/null || true
	rm -rf "$TMPD"
}
trap cleanup EXIT

fail() {
	echo "telemetry smoke: $*" >&2
	exit 1
}

# expect FILE TEXT...: FILE must contain every TEXT (fixed strings).
expect() {
	f=$1
	shift
	for want in "$@"; do
		grep -qF -- "$want" "$f" || { head -40 "$f" >&2; fail "$f lacks '$want'"; }
	done
}

# check_keys SNAPSHOT SECTION: SNAPSHOT must hold every key listed
# under [SECTION] in scripts/telemetry_keys.txt.
check_keys() {
	keys="$(sed -n "/^\[$2\]\$/,/^\[/p" scripts/telemetry_keys.txt | grep -v -e '^\[' -e '^#' -e '^$' || true)"
	[ -n "$keys" ] || fail "scripts/telemetry_keys.txt has no [$2] keys"
	missing=0
	for key in $keys; do
		grep -q "\"$key\"" "$1" || {
			echo "telemetry smoke: snapshot missing golden key \"$key\"" >&2
			missing=$((missing + 1))
		}
	done
	[ "$missing" -eq 0 ] || fail "$missing [$2] golden key(s) missing"
}

# wait_log LOG TEXT: wait until the served process has logged TEXT.
wait_log() {
	i=0
	until grep -qF "$2" "$1"; do
		kill -0 "$PID" 2>/dev/null || { cat "$1" >&2; fail "process exited before logging '$2'"; }
		[ $i -lt 600 ] || fail "timed out waiting for '$2' in $1"
		sleep 0.2
		i=$((i + 1))
	done
}

# serve NAME CMD...: run CMD in the background with a debug server on an
# ephemeral port and a lingering exit, logging to $TMPD/NAME.log; sets
# PID and, once the server is up, ADDR.
serve() {
	log="$TMPD/$1.log"
	shift
	"$@" -debug-addr 127.0.0.1:0 -linger 120s > /dev/null 2> "$log" &
	PID=$!
	wait_log "$log" "debug server on http://"
	ADDR="$(sed -n 's|.*debug server on http://\([^ ]*\) .*|\1|p' "$log" | head -1)"
}

# scrape ENDPOINT: poll wpnstat until /ENDPOINT reports an active run;
# leaves its JSON in $TMPD/ENDPOINT.json, its dashboard in .txt.
scrape() {
	i=0
	until "$TMPD/wpnstat" -addr "$ADDR" -endpoint "$1" -once -json > "$TMPD/$1.json" 2>/dev/null &&
		grep -q '"active": true' "$TMPD/$1.json"; do
		kill -0 "$PID" 2>/dev/null || fail "process died before /$1 became active"
		[ $i -lt 300 ] || { cat "$TMPD/$1.json" >&2; fail "/$1 never reported an active run"; }
		sleep 0.2
		i=$((i + 1))
	done
	"$TMPD/wpnstat" -addr "$ADDR" -endpoint "$1" -once > "$TMPD/$1.txt"
	sed 's/^/    /' "$TMPD/$1.txt"
}

# stop waits for the served process to finish writing (it logs
# "lingering" last) and kills it.
stop() {
	wait_log "$1" "lingering"
	kill "$PID" 2>/dev/null || true
	wait "$PID" 2>/dev/null || true
	PID=""
}

go build -o "$TMPD/wpncrawl" ./cmd/wpncrawl
go build -o "$TMPD/pushadminer" ./cmd/pushadminer
go build -o "$TMPD/wpnstat" ./cmd/wpnstat

CRAWL="$TMPD/wpncrawl -seed 11 -scale 0.002 -days 7 -chaos-profile acceptance,workercrashes=0.05"
MINE="$TMPD/pushadminer -seed 11 -scale 0.002 -days 7 -blocked -table 3"

echo "==> telemetry smoke: one-shard chaos crawl+mine with -metrics-out/-trace-out"
$CRAWL -out "$TMPD/one.json" -metrics-out "$TMPD/metrics.json" -trace-out "$TMPD/trace.jsonl"
[ -s "$TMPD/metrics.json" ] || fail "empty metrics snapshot"
[ -s "$TMPD/trace.jsonl" ] || fail "empty trace"
check_keys "$TMPD/metrics.json" study
expect "$TMPD/trace.jsonl" '"name":"push_received"' '"name":"notification_clicked"' '"name":"landing_page"'

echo "==> telemetry smoke: 4-shard fleet under worker kills, live /fleetz"
serve four $CRAWL -shards 4 -fleet-dir "$TMPD/fleet" -ledger "$TMPD/fleet.jsonl" -out "$TMPD/four.json"
scrape fleetz
expect "$TMPD/fleetz.json" '"shards": 4' '"live_shards"' '"heartbeats"' '"kills"' \
	'"records"' '"sim_time"' '"window_end"' '"workers"' \
	'"shard": 3' '"restart_budget"' '"merge_lag_cycles"'
expect "$TMPD/fleetz.txt" 'fleet ' 'shard' 'heartbeats'
stop "$TMPD/four.log"
cmp -s "$TMPD/one.json" "$TMPD/four.json" || fail "4-shard output differs from the one-shard run"
# A run with zero kills proves parity of nothing.
grep -Eq "fleet: .*kills=[1-9]" "$TMPD/four.log" || { cat "$TMPD/four.log" >&2; fail "chaos plan produced no worker kills"; }
expect "$TMPD/fleet.jsonl" '"kind":"shard_started"'

echo "==> telemetry smoke: blocked-mine ledger byte-stable across reruns"
$MINE -quiet -ledger "$TMPD/ledger1.jsonl" > /dev/null
$MINE -quiet -ledger "$TMPD/ledger2.jsonl" > /dev/null
cmp -s "$TMPD/ledger1.jsonl" "$TMPD/ledger2.jsonl" || fail "reruns at a fixed seed wrote different ledgers"
[ -s "$TMPD/ledger1.jsonl" ] || fail "empty ledger"
expect "$TMPD/ledger1.jsonl" '"kind":"stage_begin"' '"kind":"stage_end"' '"kind":"block_clustered"' '"kind":"cut_chosen"'

echo "==> telemetry smoke: blocked mine with telemetry, live /miningz"
serve mine $MINE -ledger "$TMPD/ledger3.jsonl" -metrics-out "$TMPD/mine-metrics.json"
scrape miningz
expect "$TMPD/miningz.json" '"stage"' '"mode": "blocked"' '"records"' '"blocks_total"' \
	'"blocks_done"' '"heights_total"' '"pairs_exact"' '"pairs_pruned"' \
	'"sweep_blocks_rescored"' '"sweep_memo_hits"' '"done"'
expect "$TMPD/miningz.txt" 'mining ' 'blocked' 'blocks ' 'pairs ' 'heights '
stop "$TMPD/mine.log"
cmp -s "$TMPD/ledger1.jsonl" "$TMPD/ledger3.jsonl" || fail "attaching telemetry changed the ledger bytes"
check_keys "$TMPD/mine-metrics.json" blocked

echo "telemetry smoke: OK (4-shard output byte-identical, $(grep -c . "$TMPD/trace.jsonl") spans, live /fleetz and /miningz, ledgers byte-stable, golden keys present)"
