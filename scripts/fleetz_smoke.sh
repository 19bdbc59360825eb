#!/bin/sh
# fleetz_smoke.sh — live-introspection gate: run a 4-shard chaos crawl
# with the debug server on, scrape /fleetz through cmd/wpnstat while
# the process is up, and assert the published fleet status has the
# expected schema (shard rows, control-plane totals, merge-lag field)
# in both its JSON and text-dashboard forms. Also checks the fleet
# event ledger the run writes. Dependency-free: POSIX sh + the Go
# toolchain (no curl — wpnstat is the HTTP client).
#
#   sh scripts/fleetz_smoke.sh
set -eu

cd "$(dirname "$0")/.."

TMPD="$(mktemp -d)"
CRAWLPID=""
cleanup() {
	[ -n "$CRAWLPID" ] && kill "$CRAWLPID" 2>/dev/null || true
	rm -rf "$TMPD"
}
trap cleanup EXIT

go build -o "$TMPD/wpncrawl" ./cmd/wpncrawl
go build -o "$TMPD/wpnstat" ./cmd/wpnstat

echo "==> fleetz smoke: 4-shard chaos crawl with debug server"
"$TMPD/wpncrawl" -seed 11 -scale 0.002 -days 7 \
	-chaos-profile "acceptance,workercrashes=0.05" \
	-shards 4 -fleet-dir "$TMPD/fleet" \
	-fleet-ledger "$TMPD/ledger.jsonl" \
	-debug-addr 127.0.0.1:0 -linger 120s \
	-out "$TMPD/wpns.json" 2> "$TMPD/crawl.log" &
CRAWLPID=$!

# The server binds an ephemeral port; wait for the log line announcing it.
ADDR=""
i=0
while [ $i -lt 100 ]; do
	ADDR="$(sed -n 's|.*debug server on http://\([^ ]*\) .*|\1|p' "$TMPD/crawl.log" | head -1)"
	[ -n "$ADDR" ] && break
	kill -0 "$CRAWLPID" 2>/dev/null || {
		cat "$TMPD/crawl.log" >&2
		echo "fleetz smoke: wpncrawl exited before serving" >&2
		exit 1
	}
	sleep 0.2
	i=$((i + 1))
done
[ -n "$ADDR" ] || { echo "fleetz smoke: debug server never announced an address" >&2; exit 1; }

# Poll until the coordinator has published a fleet status (the first
# publish lands right after seeding).
i=0
while [ $i -lt 300 ]; do
	if "$TMPD/wpnstat" -addr "$ADDR" -once -json > "$TMPD/fleetz.json" 2>/dev/null &&
		grep -q '"active": true' "$TMPD/fleetz.json"; then
		break
	fi
	kill -0 "$CRAWLPID" 2>/dev/null || {
		cat "$TMPD/crawl.log" >&2
		echo "fleetz smoke: wpncrawl died before /fleetz became active" >&2
		exit 1
	}
	sleep 0.2
	i=$((i + 1))
done
grep -q '"active": true' "$TMPD/fleetz.json" || {
	echo "fleetz smoke: /fleetz never reported an active fleet" >&2
	cat "$TMPD/fleetz.json" >&2
	exit 1
}

echo "==> fleetz smoke: schema assertions"
for key in '"shards": 4' '"live_shards"' '"heartbeats"' '"kills"' \
	'"records"' '"sim_time"' '"window_end"' '"workers"' \
	'"shard": 3' '"restart_budget"' '"merge_lag_cycles"'; do
	grep -q "$key" "$TMPD/fleetz.json" || {
		echo "fleetz smoke: /fleetz JSON missing $key" >&2
		cat "$TMPD/fleetz.json" >&2
		exit 1
	}
done

echo "==> fleetz smoke: text dashboard"
"$TMPD/wpnstat" -addr "$ADDR" -once > "$TMPD/fleetz.txt"
for want in 'fleet ' 'shard' 'heartbeats'; do
	grep -q "$want" "$TMPD/fleetz.txt" || {
		echo "fleetz smoke: dashboard missing '$want'" >&2
		cat "$TMPD/fleetz.txt" >&2
		exit 1
	}
done
sed 's/^/    /' "$TMPD/fleetz.txt"

# Let the desktop fleet finish so its ledger is written, then check it
# (ledger paths derive per device from the base path:
# ledger.jsonl → ledger.desktop.jsonl).
echo "==> fleetz smoke: event ledger"
LEDGER="$TMPD/ledger.desktop.jsonl"
i=0
while [ $i -lt 600 ] && [ ! -f "$LEDGER" ]; do
	kill -0 "$CRAWLPID" 2>/dev/null || break
	sleep 0.2
	i=$((i + 1))
done
[ -f "$LEDGER" ] || { echo "fleetz smoke: no ledger written" >&2; cat "$TMPD/crawl.log" >&2; exit 1; }
grep -q '"kind":"shard_started"' "$LEDGER" || {
	echo "fleetz smoke: ledger $LEDGER has no shard_started event" >&2
	head "$LEDGER" >&2
	exit 1
}

kill "$CRAWLPID" 2>/dev/null || true
wait "$CRAWLPID" 2>/dev/null || true
CRAWLPID=""

echo "fleetz smoke: OK (live /fleetz schema, dashboard render, event ledger)"
