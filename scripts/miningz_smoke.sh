#!/bin/sh
# miningz_smoke.sh — mining observability gate: (1) rerun a small
# blocked mine twice at a fixed seed and assert the deterministic mining
# ledger is byte-identical; (2) run it a third time with the debug
# server up, scrape /miningz through cmd/wpnstat while the process
# lingers, and assert the published mining status has the expected
# schema in both its JSON and text-dashboard forms; (3) assert attaching
# telemetry did not change the ledger bytes and the blocked-only golden
# keys landed in the metrics snapshot. Dependency-free: POSIX sh + the
# Go toolchain (no curl — wpnstat is the HTTP client).
#
#   sh scripts/miningz_smoke.sh
set -eu

cd "$(dirname "$0")/.."

TMPD="$(mktemp -d)"
MINEPID=""
cleanup() {
	[ -n "$MINEPID" ] && kill "$MINEPID" 2>/dev/null || true
	rm -rf "$TMPD"
}
trap cleanup EXIT

go build -o "$TMPD/pushadminer" ./cmd/pushadminer
go build -o "$TMPD/wpnstat" ./cmd/wpnstat

MINE="$TMPD/pushadminer -seed 11 -scale 0.002 -days 7 -blocked -table 3"

echo "==> miningz smoke: ledger byte-stability across reruns"
$MINE -quiet -mining-ledger "$TMPD/ledger1.jsonl" > /dev/null
$MINE -quiet -mining-ledger "$TMPD/ledger2.jsonl" > /dev/null
cmp -s "$TMPD/ledger1.jsonl" "$TMPD/ledger2.jsonl" || {
	echo "miningz smoke: reruns at a fixed seed produced different ledgers" >&2
	exit 1
}
[ -s "$TMPD/ledger1.jsonl" ] || { echo "miningz smoke: empty ledger" >&2; exit 1; }

for kind in stage_begin stage_end block_clustered cut_chosen; do
	grep -q "\"kind\":\"$kind\"" "$TMPD/ledger1.jsonl" || {
		echo "miningz smoke: ledger has no $kind event" >&2
		head "$TMPD/ledger1.jsonl" >&2
		exit 1
	}
done

echo "==> miningz smoke: blocked mine with debug server"
$MINE -mining-ledger "$TMPD/ledger3.jsonl" \
	-metrics-out "$TMPD/metrics.json" \
	-debug-addr 127.0.0.1:0 -linger 120s \
	> /dev/null 2> "$TMPD/mine.log" &
MINEPID=$!

# The server binds an ephemeral port; wait for the log line announcing it.
ADDR=""
i=0
while [ $i -lt 100 ]; do
	ADDR="$(sed -n 's|.*debug server on http://\([^ ]*\) .*|\1|p' "$TMPD/mine.log" | head -1)"
	[ -n "$ADDR" ] && break
	kill -0 "$MINEPID" 2>/dev/null || {
		cat "$TMPD/mine.log" >&2
		echo "miningz smoke: pushadminer exited before serving" >&2
		exit 1
	}
	sleep 0.2
	i=$((i + 1))
done
[ -n "$ADDR" ] || { echo "miningz smoke: debug server never announced an address" >&2; exit 1; }

# Poll until a mining status is published (the run is short, so the
# usual scrape catches the lingering done-state snapshot — which is the
# point: /miningz stays inspectable after the run).
i=0
while [ $i -lt 300 ]; do
	if "$TMPD/wpnstat" -addr "$ADDR" -endpoint miningz -once -json > "$TMPD/miningz.json" 2>/dev/null &&
		grep -q '"active": true' "$TMPD/miningz.json"; then
		break
	fi
	kill -0 "$MINEPID" 2>/dev/null || {
		cat "$TMPD/mine.log" >&2
		echo "miningz smoke: pushadminer died before /miningz became active" >&2
		exit 1
	}
	sleep 0.2
	i=$((i + 1))
done
grep -q '"active": true' "$TMPD/miningz.json" || {
	echo "miningz smoke: /miningz never reported an active mining run" >&2
	cat "$TMPD/miningz.json" >&2
	exit 1
}

echo "==> miningz smoke: schema assertions"
for key in '"stage"' '"mode": "blocked"' '"records"' '"blocks_total"' \
	'"blocks_done"' '"heights_total"' '"pairs_exact"' '"pairs_pruned"' \
	'"sweep_blocks_rescored"' '"sweep_memo_hits"' '"done"'; do
	grep -q "$key" "$TMPD/miningz.json" || {
		echo "miningz smoke: /miningz JSON missing $key" >&2
		cat "$TMPD/miningz.json" >&2
		exit 1
	}
done

echo "==> miningz smoke: text dashboard"
"$TMPD/wpnstat" -addr "$ADDR" -endpoint miningz -once > "$TMPD/miningz.txt"
for want in 'mining ' 'blocked' 'blocks ' 'pairs ' 'heights '; do
	grep -q "$want" "$TMPD/miningz.txt" || {
		echo "miningz smoke: dashboard missing '$want'" >&2
		cat "$TMPD/miningz.txt" >&2
		exit 1
	}
done
sed 's/^/    /' "$TMPD/miningz.txt"

# Wait for the third run's ledger + metrics to hit disk (both are
# written before the linger sleep).
i=0
while [ $i -lt 300 ] && { [ ! -s "$TMPD/ledger3.jsonl" ] || [ ! -s "$TMPD/metrics.json" ]; }; do
	kill -0 "$MINEPID" 2>/dev/null || break
	sleep 0.2
	i=$((i + 1))
done
[ -s "$TMPD/ledger3.jsonl" ] || { echo "miningz smoke: no ledger from debug run" >&2; exit 1; }
[ -s "$TMPD/metrics.json" ] || { echo "miningz smoke: no metrics snapshot" >&2; exit 1; }

# The ledger must be sink-independent: attaching telemetry + the debug
# server must not change a single byte of the event stream.
cmp -s "$TMPD/ledger1.jsonl" "$TMPD/ledger3.jsonl" || {
	echo "miningz smoke: attaching telemetry changed the ledger bytes" >&2
	exit 1
}

echo "==> miningz smoke: blocked-only golden keys"
missing=0
while IFS= read -r key; do
	case "$key" in ''|'#'*) continue ;; esac
	if ! grep -q "\"$key\"" "$TMPD/metrics.json"; then
		echo "miningz smoke: snapshot missing golden key \"$key\"" >&2
		missing=$((missing + 1))
	fi
done <<KEYS
$(sed -n '/^# mining-blocked-only/,$p' scripts/telemetry_keys.txt)
KEYS
[ "$missing" -eq 0 ] || { echo "miningz smoke: $missing golden key(s) missing" >&2; exit 1; }

kill "$MINEPID" 2>/dev/null || true
wait "$MINEPID" 2>/dev/null || true
MINEPID=""

echo "miningz smoke: OK (ledger byte-stable, live /miningz schema, dashboard render, blocked keys)"
